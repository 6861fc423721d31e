//! `cnnre` — command-line driver for the accelerator simulator and the
//! reverse-engineering attacks.
//!
//! ```console
//! $ cnnre trace lenet                 # run a model, print trace statistics
//! $ cnnre trace alexnet --csv out.csv # ... and dump the trace for plotting
//! $ cnnre analyze out.csv --input 227x3 --classes 10  # attack a recorded trace
//! $ cnnre attack-structure lenet      # recover candidate structures
//! $ cnnre attack-weights              # steal a conv layer's w/b ratios
//! $ cnnre defend lenet                # show the ORAM defense
//! ```
//!
//! Models: `lenet`, `convnet`, `alexnet`, `squeezenet`, `vgg11`, `vgg16`,
//! `resnet`, `inception` (optionally `model/DIV` for depth-scaled variants,
//! e.g. `alexnet/8`; the VGGs clamp to at least /8 to keep traces
//! tractable).

use std::io::Write;

use cnn_reveng::accel::{AccelConfig, Accelerator};
use cnn_reveng::attacks::structure::{recover_structures, NetworkSolverConfig};
use cnn_reveng::attacks::weights::{
    recover_ratios, recover_ratios_parallel, AcceleratorOracle, FunctionalOracle, LayerGeometry,
    MergedOrder, RecoveryConfig,
};
use cnn_reveng::nn::layer::{Conv2d, PoolKind};
use cnn_reveng::nn::models;
use cnn_reveng::nn::Network;
use cnn_reveng::tensor::{init, Shape3, Shape4};
use cnn_reveng::trace::defense::{obfuscate, OramConfig};
use cnnre_bench::{Harness, MetricsFile};
use cnnre_obs::json::{self, Value};
use cnnre_tensor::rng::SmallRng;
use cnnre_tensor::rng::{Rng, SeedableRng};

fn main() {
    // Global flags, accepted by every subcommand and stripped before
    // dispatch. `--metrics` turns the otherwise-free instrumentation on;
    // `--profile-out` additionally records the full span-tree timeline.
    let (harness, args) = Harness::from_args(MetricsFile::Deterministic);
    let code = match args.first().map(String::as_str) {
        Some("trace") => cmd_trace(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        // `attack` is the short alias for the headline structure attack.
        Some("attack" | "attack-structure") => cmd_attack_structure(&args[1..]),
        Some("attack-weights") => cmd_attack_weights(&args[1..]),
        Some("defend") => cmd_defend(&args[1..]),
        Some("obs-probe") => cmd_obs_probe(&args[1..]),
        Some("--list-metrics" | "list-metrics") => {
            print!("{}", cnnre_obs::catalog::render_table());
            0
        }
        Some("help") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            print_usage();
            2
        }
    };
    harness.finish(code);
}

fn print_usage() {
    println!(
        "cnnre — reverse engineering CNNs through memory side channels (DAC'18 reproduction)\n\n\
         USAGE:\n  cnnre trace <model> [--csv FILE] [--stats]\n  \
         cnnre analyze <trace-file> [--input WxC] [--classes N] [--stats] [--layers]\n  \
         cnnre attack-structure <model>      (alias: cnnre attack <model>)\n  \
         cnnre attack-weights [--filters N] [--via-trace]\n  cnnre defend <model>\n  \
         cnnre obs-probe ADDR [--against METRICS_JSON] [--quit]\n  \
         cnnre --list-metrics\n\n\
         GLOBAL FLAGS:\n  \
         --threads N          worker threads for the parallel attack engines (default:\n                       \
         CNNRE_THREADS or 1); output is identical at any value\n  \
         --metrics FILE       enable instrumentation, write a metrics snapshot (JSON)\n  \
         --profile-out FILE   record the span-tree timeline; writes Chrome Trace JSON\n                       \
         (open in ui.perfetto.dev), or folded flamegraph stacks\n                       \
         when FILE ends in .folded/.txt\n  \
         --profile-clock C    timeline clock domain: wall|cycles|both (default both)\n  \
         --events-out FILE    record the live attack-event stream to a replayable .evt file\n                       \
         (view with `cnnre-viz --replay FILE`)\n  \
         --serve-obs ADDR     serve live observability over HTTP while running:\n                       \
         /metrics /profile /progress /events /health\n                       \
         (scrape with `cnnre obs-probe` or any Prometheus client;\n                       \
         watch events with `cnnre-viz --replay http://ADDR/events`)\n  \
         --serve-obs-hold     keep serving after the run until a scraper sends GET /quit\n  \
         --log-level LEVEL    stderr verbosity: error|warn|info|debug|trace|off\n                       \
         (also settable via the CNNRE_LOG environment variable)\n\n\
         MODELS: lenet | convnet | alexnet | squeezenet | vgg11 | vgg16 | resnet | inception\n        \
         (append /DIV for depth-scaled variants, e.g. alexnet/8)"
    );
}

/// Parses `name[/div]` into a built network plus its attack parameters
/// `(input interface, classes)`.
fn build_model(spec: &str) -> Result<(Network, (usize, usize), usize), String> {
    let (name, div) = match spec.split_once('/') {
        Some((n, d)) => {
            let div = d
                .parse::<usize>()
                .map_err(|_| format!("bad depth divisor '{d}'"))?;
            (n, div.max(1))
        }
        None => (spec, 1),
    };
    let mut rng = SmallRng::seed_from_u64(0);
    let classes = 10;
    let built = match name {
        "lenet" => (models::lenet(div, classes, &mut rng), (32, 1)),
        "convnet" => (models::convnet(div, classes, &mut rng), (32, 3)),
        "alexnet" => (models::alexnet(div, classes, &mut rng), (227, 3)),
        "squeezenet" => (models::squeezenet(div, classes, &mut rng), (227, 3)),
        "vgg11" => (models::vgg11(div.max(8), classes, &mut rng), (224, 3)),
        "vgg16" => (models::vgg16(div.max(8), classes, &mut rng), (224, 3)),
        "resnet" => (
            models::resnet(&models::ResNetSpec::small(div, classes), &mut rng)
                .map_err(|e| e.to_string())?,
            (64, 3),
        ),
        "inception" => (
            models::inception(&models::InceptionSpec::small(div, classes), &mut rng)
                .map_err(|e| e.to_string())?,
            (64, 3),
        ),
        other => return Err(format!("unknown model '{other}'")),
    };
    Ok((built.0, built.1, classes))
}

fn cmd_trace(args: &[String]) -> i32 {
    let Some(model) = args.first() else {
        eprintln!("usage: cnnre trace <model> [--csv FILE]");
        return 2;
    };
    let (net, _, _) = match build_model(model) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let exec = match Accelerator::new(AccelConfig::default()).run_trace_only(&net) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("accelerator error: {e}");
            return 1;
        }
    };
    println!(
        "{model}: {} transactions ({} reads, {} writes), {} cycles, {} layers",
        exec.trace.len(),
        exec.trace.read_count(),
        exec.trace.write_count(),
        exec.trace.duration(),
        exec.stages.len()
    );
    print!("{}", exec.summary(AccelConfig::default().pe_count()));
    if args.iter().any(|a| a == "--stats") {
        // Spanned so `--profile-out` times the attacker's offline analyses.
        let stats = {
            let _span = cnnre_obs::span("trace.stats");
            cnn_reveng::trace::stats::TraceStats::compute(&exec.trace, 16)
        };
        print!("{}", stats.render());
        let window = (exec.trace.duration() / 40).max(1);
        let profile = {
            let _span = cnnre_obs::span("trace.traffic_profile");
            cnn_reveng::trace::stats::TrafficProfile::compute(&exec.trace, window)
        };
        println!("traffic ({window}-cycle windows):");
        print!("{}", profile.render(40));
    }
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--csv needs a file path");
            return 2;
        };
        let write = std::fs::File::create(path)
            .map_err(cnn_reveng::trace::io::TraceIoError::from)
            .and_then(|f| {
                // Buffered, and flushed here so a failed flush is reported.
                let mut w = std::io::BufWriter::new(f);
                cnn_reveng::trace::io::write_csv(&exec.trace, &mut w)?;
                Ok(w.flush()?)
            });
        match write {
            Ok(()) => println!("trace written to {path} (readable by `cnnre analyze`)"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    0
}

/// Loads a trace file written by `cnnre trace --csv` (or the binary
/// format from `trace::io::write_binary`), sniffing the format from the
/// first bytes.
fn load_trace(path: &str) -> Result<cnn_reveng::trace::Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = if bytes.starts_with(b"CNNRETR1") {
        cnn_reveng::trace::io::read_binary(bytes.as_slice())
    } else {
        cnn_reveng::trace::io::read_csv(bytes.as_slice())
    };
    parsed.map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_analyze(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!(
            "usage: cnnre analyze <trace-file> [--input WxC] [--classes N] [--stats] [--layers]"
        );
        return 2;
    };
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!(
        "{path}: {} transactions ({} reads / {} writes), {} cycles",
        trace.len(),
        trace.read_count(),
        trace.write_count(),
        trace.duration()
    );
    if args.iter().any(|a| a == "--stats") {
        let stats = cnn_reveng::trace::stats::TraceStats::compute(&trace, 16);
        print!("{}", stats.render());
    }
    if args.iter().any(|a| a == "--layers") {
        let obs = cnn_reveng::trace::observe::observe(&trace);
        println!("{} segments:", obs.layers.len());
        for (i, l) in obs.layers.iter().enumerate() {
            println!(
                "  seg {i:>2}: {:?} IFM≈{} blk, OFM≈{} blk, FLTR≈{} blk, {} cycles",
                l.kind,
                l.ifm_blocks_total(),
                l.ofm_blocks,
                l.weight_blocks,
                l.cycles
            );
        }
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .cloned()
    };
    let input = match flag("--input") {
        Some(v) => {
            let Some((w, c)) = v.split_once('x') else {
                eprintln!("--input expects WxC, e.g. 227x3");
                return 2;
            };
            match (w.parse::<usize>(), c.parse::<usize>()) {
                (Ok(w), Ok(c)) => Some((w, c)),
                _ => {
                    eprintln!("--input expects WxC, e.g. 227x3");
                    return 2;
                }
            }
        }
        None => None,
    };
    let classes = flag("--classes").and_then(|v| v.parse::<usize>().ok());
    let (Some(input), Some(classes)) = (input, classes) else {
        println!("(pass --input WxC and --classes N to run the structure attack)");
        return 0;
    };
    match recover_structures(&trace, input, classes, &NetworkSolverConfig::default()) {
        Ok(structures) => {
            println!("structure attack: {} possible structures", structures.len());
            for (n, s) in structures.iter().take(5).enumerate() {
                print!("  #{n}: ");
                for c in s.conv_layers() {
                    print!("[{c}] ");
                }
                println!();
            }
            0
        }
        Err(e) => {
            eprintln!("attack failed: {e}");
            1
        }
    }
}

fn cmd_attack_structure(args: &[String]) -> i32 {
    let Some(model) = args.first() else {
        eprintln!("usage: cnnre attack-structure <model>");
        return 2;
    };
    let (net, input, classes) = match build_model(model) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let exec = match Accelerator::new(AccelConfig::default()).run_trace_only(&net) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("accelerator error: {e}");
            return 1;
        }
    };
    match recover_structures(&exec.trace, input, classes, &NetworkSolverConfig::default()) {
        Ok(structures) => {
            println!("{model}: {} possible structures", structures.len());
            for (n, s) in structures.iter().take(10).enumerate() {
                print!("  #{n}: ");
                for c in s.conv_layers() {
                    print!("[{c}] ");
                }
                for fc in s.fc_layers() {
                    print!("fc({}->{}) ", fc.in_features, fc.out_features);
                }
                println!();
            }
            if structures.len() > 10 {
                println!("  ... ({} more)", structures.len() - 10);
            }
            0
        }
        Err(e) => {
            eprintln!("attack failed: {e}");
            1
        }
    }
}

fn cmd_attack_weights(args: &[String]) -> i32 {
    let filters = args
        .iter()
        .position(|a| a == "--filters")
        .and_then(|p| args.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let geom = LayerGeometry {
        input: Shape3::new(1, 23, 23),
        d_ofm: filters,
        f: 5,
        s: 2,
        p: 0,
        pool: Some((PoolKind::Max, 3, 2, 0)),
        order: MergedOrder::ActThenPool,
        threshold: 0.0,
    };
    let mut rng = SmallRng::seed_from_u64(1);
    let weights = init::compressed_conv(&mut rng, Shape4::new(filters, 1, 5, 5), 0.4, 8);
    let bias: Vec<f32> = (0..filters).map(|_| -rng.gen_range(0.1..0.5f32)).collect();
    let victim = match Conv2d::from_parts(weights, bias, geom.s, geom.p) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("victim construction: {e}");
            return 1;
        }
    };
    // --via-trace drives the attack through the full accelerator + trace
    // parser (slow: one simulated inference per query); the default uses
    // the equivalent functional model of the same leak.
    let rec = if args.iter().any(|a| a == "--via-trace") {
        // The accelerator-backed oracle is stateful and stays on the
        // sequential engine; the functional path runs filters in parallel.
        let mut oracle = AcceleratorOracle::new(victim.clone(), geom);
        recover_ratios(&mut oracle, &RecoveryConfig::default())
    } else {
        let oracle = FunctionalOracle::new(victim.clone(), geom);
        recover_ratios_parallel(oracle, &RecoveryConfig::default())
    };
    println!(
        "recovered {:.1}% of {} weights, max |w/b| error {:.3e}, {} victim queries",
        100.0 * rec.coverage(),
        filters * 25,
        rec.max_ratio_error(victim.weights(), victim.bias()),
        rec.queries
    );
    0
}

/// `cnnre obs-probe ADDR [--against METRICS_JSON] [--quit]` — scrapes a
/// live `--serve-obs` server with the in-tree HTTP client (no curl in
/// the tree) and validates all five endpoints. With `--against`, every
/// scalar metric in a `--metrics`/bench JSON export is cross-checked
/// against the `/metrics` Prometheus text; with `--quit`, the probe ends
/// a `--serve-obs-hold` run. Exit 0 only when every check passed.
fn cmd_obs_probe(args: &[String]) -> i32 {
    let Some(addr) = args.first() else {
        eprintln!("usage: cnnre obs-probe ADDR [--against METRICS_JSON] [--quit]");
        return 2;
    };
    let against = match args.iter().position(|a| a == "--against") {
        Some(pos) => match args.get(pos + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("--against needs a metrics JSON path");
                return 2;
            }
        },
        None => None,
    };
    let probe = |path: &str| -> Result<Vec<u8>, String> {
        match cnnre_obs::http::get(addr, path) {
            Ok((200, body)) => Ok(body),
            Ok((status, _)) => Err(format!("status {status}")),
            Err(e) => Err(e.to_string()),
        }
    };
    let mut failures = 0usize;
    let mut check = |endpoint: &str, outcome: Result<(), String>| match outcome {
        Ok(()) => eprintln!("obs-probe: {endpoint} OK"),
        Err(why) => {
            eprintln!("obs-probe: {endpoint} FAILED: {why}");
            failures += 1;
        }
    };
    check(
        "/health",
        probe("/health").and_then(|body| {
            if String::from_utf8_lossy(&body).contains("\"status\": \"ok\"") {
                Ok(())
            } else {
                Err("no ok status in body".to_string())
            }
        }),
    );
    let metrics_text = match probe("/metrics") {
        Ok(body) => {
            let text = String::from_utf8_lossy(&body).into_owned();
            let shaped = text.starts_with('#') && text.contains("cnnre_");
            check(
                "/metrics",
                if shaped {
                    Ok(())
                } else {
                    Err("not Prometheus text with cnnre_ families".to_string())
                },
            );
            Some(text)
        }
        Err(e) => {
            check("/metrics", Err(e));
            None
        }
    };
    check(
        "/profile?clock=cycles",
        probe("/profile?clock=cycles").and_then(|body| {
            if String::from_utf8_lossy(&body).contains("traceEvents") {
                Ok(())
            } else {
                Err("no traceEvents array".to_string())
            }
        }),
    );
    check(
        "/progress",
        probe("/progress").and_then(|body| {
            let text = String::from_utf8_lossy(&body);
            if text.contains("\"runs\": [{") {
                Ok(())
            } else if text.contains("\"runs\"") {
                Err("no run in the runs list".to_string())
            } else {
                Err("no runs list".to_string())
            }
        }),
    );
    check(
        "/events",
        probe("/events").and_then(|body| {
            if body.starts_with(cnnre_obs::stream::MAGIC) {
                Ok(())
            } else {
                Err("replay does not start with the stream magic".to_string())
            }
        }),
    );
    if let (Some(json_path), Some(prom)) = (&against, &metrics_text) {
        check(
            "/metrics vs JSON export",
            compare_metrics_against_json(prom, json_path),
        );
    }
    if args.iter().any(|a| a == "--quit") {
        check("/quit", probe("/quit").map(|_| ()));
    }
    if failures == 0 {
        eprintln!("obs-probe: all checks passed");
        0
    } else {
        1
    }
}

/// Cross-checks the `/metrics` Prometheus text against a flat JSON
/// metrics export: every deterministic number member of its top-level
/// object must agree with the `cnnre_`-mangled sample. `experiment`,
/// volatile names and arrays (series, whose exposition shape differs) are
/// skipped; at least one scalar must match so an empty intersection
/// cannot pass vacuously.
fn compare_metrics_against_json(prom: &str, json_path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(json_path).map_err(|e| format!("cannot read {json_path}: {e}"))?;
    let Value::Obj(members) = json::parse(&text).map_err(|e| format!("{json_path}: {e}"))? else {
        return Err(format!("{json_path}: not a JSON object"));
    };
    let mut matched = 0usize;
    let mut mismatches = Vec::new();
    for (name, value) in &members {
        let Some(expected) = value.num::<f64>() else {
            continue;
        };
        if name == "experiment" || cnnre_obs::export::is_volatile(name) {
            continue;
        }
        let family = format!("{} ", cnnre_obs::export::prometheus_name(name));
        let Some(actual) = prom
            .lines()
            .find_map(|pl| pl.strip_prefix(&family))
            .and_then(|v| v.trim().parse::<f64>().ok())
        else {
            continue;
        };
        if (actual - expected).abs() <= 1e-9 * expected.abs().max(1.0) {
            matched += 1;
        } else {
            mismatches.push(format!("{name}: JSON {expected} vs /metrics {actual}"));
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "{} value mismatches: {}",
            mismatches.len(),
            mismatches.join("; ")
        ));
    }
    if matched == 0 {
        return Err("no scalar metric overlapped between the export and /metrics".to_string());
    }
    eprintln!("obs-probe: {matched} scalar metrics agree with {json_path}");
    Ok(())
}

fn cmd_defend(args: &[String]) -> i32 {
    let Some(model) = args.first() else {
        eprintln!("usage: cnnre defend <model>");
        return 2;
    };
    let (net, input, classes) = match build_model(model) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let exec = match Accelerator::new(AccelConfig::default()).run_trace_only(&net) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("accelerator error: {e}");
            return 1;
        }
    };
    let cfg = NetworkSolverConfig::default();
    let before = recover_structures(&exec.trace, input, classes, &cfg).map(|s| s.len());
    println!(
        "unprotected: attack -> {:?} candidate structures",
        before.ok()
    );
    let mut rng = SmallRng::seed_from_u64(9);
    let (protected, stats) = obfuscate(&exec.trace, OramConfig::default(), &mut rng);
    println!("Path-ORAM overhead: {:.0}x traffic", stats.overhead());
    match recover_structures(&protected, input, classes, &cfg) {
        Ok(s) => println!(
            "protected: attack still recovers {} structures (!)",
            s.len()
        ),
        Err(e) => println!("protected: attack FAILS ({e})"),
    }
    0
}
