//! The benchmark's measuring program. `perfbench/run.py` builds it and
//! drives it; see `BENCHMARK.json` for the workloads and metrics.
//!
//! ```text
//! perfbench prepare --workload W --seed N --seconds S --trace 0|1 --dir D
//! perfbench measure --workload W --seed N --seconds S --trace 0|1 --dir D
//! ```
//!
//! `prepare` makes a serving workload's inputs (it trains and saves the
//! served artifact and writes the request stream) so that `measure` runs
//! in a fresh process whose peak RSS is the daemon's alone. `measure`
//! prints one JSON record as its last stdout line.

mod inputs;
mod serve;
mod stats;
mod train;

use inputs::{generate, Workload};
use srclda_serve::server::json::Value;
use stats::{median, Raw};
use std::path::{Path, PathBuf};

/// Parsed command line.
struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().ok_or("missing command")?;
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let workload = flag("--workload")?;
    Ok(Args {
        command,
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: flag("--trace")? == "1",
        dir: PathBuf::from(flag("--dir")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let raw = match args.command.as_str() {
        "prepare" if args.workload.serves() => serve::prepare(args.workload, args.seed, &args.dir),
        "measure" if args.workload.serves() => serve::measure(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &args.dir,
        ),
        "measure" => measure_train(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &args.dir,
        ),
        other => {
            eprintln!(
                "perfbench: {other:?} does not apply to {}",
                args.workload.name()
            );
            std::process::exit(2);
        }
    };
    println!("{}", raw.to_json());
}

/// Per-layer metrics of the serving path, which a training workload has not.
const SERVING_ONLY: &[(&str, &str)] = &[
    ("engine.cache_hit_ratio", "fraction"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("server.latency_ms", "ms"),
    ("server.compute_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("client.socket_ms", "ms"),
    ("client.lateness_ms", "ms"),
    ("registry.reload_s", "s"),
    ("metrics.scrape_ms", "ms"),
    ("server.shed", "count"),
];

/// A training workload: repeated whole fits, output checks, held-out
/// quality, and in-process inference with the trained model.
fn measure_train(workload: Workload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Raw {
    let spec = workload.train_spec();
    let inputs = generate(workload, seed, 0);
    let mut raw = Raw::default();
    // The first fit's peak RSS is the training's own (every fit is the
    // same work); it is read before the inference engine exists.
    let mut rss = None;
    let mut probe: Option<Result<train::EngineProbe, String>> = None;
    let mut series = train::Series::default();
    train::fit_for(
        &mut series,
        &spec,
        &inputs,
        dir,
        seconds,
        trace,
        &mut raw,
        &mut |fitted, fit_s| {
            let probe = probe.get_or_insert_with(|| {
                rss = stats::peak_rss_mb();
                train::EngineProbe::new(fitted, &inputs)
            });
            if let Ok(p) = probe {
                p.batch(fit_s / 2.0);
            }
        },
    );
    train::check_digests(&series, &mut raw);
    let Some(fitted) = &series.fitted else {
        return raw;
    };

    let mut setups: Vec<f64> = series.plain.iter().map(|f| f.setup_s).collect();
    setups.extend(train::extra_setups(&spec, &inputs, setups.len(), 15));
    raw.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "SourceLdaBuilder::build + assemble",
    );
    raw.metric(
        "train_tokens_per_s",
        train::tokens_per_s(&series.plain),
        "tokens/s",
        series.plain.len(),
        "sweeps x tokens / fit_resumable wall, summed over the run's fits, NoopObserver",
    );

    train::check_fitted(fitted, &inputs, &mut raw);
    train::quality(fitted, &inputs, &mut raw);
    match probe {
        Some(Ok(p)) => p.report(trace, &mut raw),
        Some(Err(e)) => raw.check(Err(e)),
        None => {}
    }
    if trace {
        train::layer_metrics(&spec, &series, &mut raw);
        train::loglik_eval(fitted, &mut raw);
        for (name, unit) in SERVING_ONLY {
            raw.unmeasured(name, unit, "training workload: no daemon runs");
        }
        machine_info(&spec, &mut raw);
    }
    finish(&mut raw, rss);
    raw
}

/// Machine facts and the computed working set, for the traced report.
fn machine_info(spec: &inputs::TrainSpec, raw: &mut Raw) {
    let shards = match spec.backend {
        srclda_core::Backend::ShardedDocs { shards, .. } => shards,
        _ => 1,
    };
    let per_shard = spec.world.vocab * spec.model_topics() * 4;
    raw.info("nproc", Value::from(stats::nproc()));
    raw.info(
        "llc_bytes",
        stats::llc_bytes().map_or(Value::Null, Value::from),
    );
    raw.info(
        "working_set_bytes_per_shard_computed",
        Value::from(per_shard),
    );
    raw.info("shards", Value::from(shards));
}

/// Record the peak RSS read at the end of the measured phase, and the
/// share of operations that succeeded; call last.
fn finish(raw: &mut Raw, rss: Option<f64>) {
    match rss {
        Some(mb) => raw.metric("peak_rss_mb", mb, "MB", 1, "VmHWM of the measuring process"),
        None => raw.check(Err("VmHWM unreadable".into())),
    }
    let ok = 1.0 - raw.failed() as f64 / raw.attempted.max(1) as f64;
    raw.metric(
        "ok_ratio",
        ok,
        "fraction",
        raw.attempted as usize,
        "1 - failed / attempted operations",
    );
}
