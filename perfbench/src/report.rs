//! The metrics a run reports: every end-to-end metric on an untraced
//! run, every per-layer metric on a traced one. Each workload reports
//! the same names; a layer a workload does not exercise reads 0.

use crate::run::{peak_rss_mb, Checks, Run};
use crate::stats::{self, Metric};
use abft_memsim::KernelKind;

/// End-to-end metric names and units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics reported for the whole workload.
const LAYERS: [(&str, &str); 37] = [
    ("workloads.ns_per_access", "ns"),
    ("packed.ns_per_access", "ns"),
    ("packed.bytes_per_access", "B"),
    ("cache.ns_per_access", "ns"),
    ("cache.miss_ratio", "ratio"),
    ("miss_stream.bytes_per_event", "B"),
    ("miss_stream.ns_per_event", "ns"),
    ("controller.ns_per_lookup", "ns"),
    ("dram.ns_per_access", "ns"),
    ("dram.accesses", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.refresh_stall_frac", "ratio"),
    ("dram.avg_queue_ns", "ns"),
    ("system.ns_per_event", "ns"),
    ("system.self_ns_per_event", "ns"),
    ("system.coverage", "ratio"),
    ("system.events_per_s", "1/s"),
    ("simpoint.select_s", "s"),
    ("simpoint.replayed_frac", "ratio"),
    ("simpoint.ns_per_replayed_event", "ns"),
    ("simpoint.sampled_err_pct", "%"),
    ("store.save_ns_per_byte", "ns/B"),
    ("store.load_ns_per_byte", "ns/B"),
    ("store.blob_bytes", "B"),
    ("store.hit_rate", "ratio"),
    ("campaign.filter_builds", "count"),
    ("campaign.store_hits", "count"),
    ("campaign.cold_start_s", "s"),
    ("campaign.warm_start_s", "s"),
    ("abft.compute_s", "s"),
    ("abft.checksum_s", "s"),
    ("abft.verify_s", "s"),
    ("abft.assisted_verify_s", "s"),
    ("abft.overhead_pct", "%"),
    ("abft.corrected_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer metrics also reported per kernel, as `<name>.<kernel>`,
/// where the kernel mix matters.
const PER_KERNEL: [(&str, &str); 8] = [
    ("workloads.ns_per_access", "ns"),
    ("cache.ns_per_access", "ns"),
    ("cache.miss_ratio", "ratio"),
    ("miss_stream.ns_per_event", "ns"),
    ("controller.ns_per_lookup", "ns"),
    ("dram.ns_per_access", "ns"),
    ("system.ns_per_event", "ns"),
    ("system.self_ns_per_event", "ns"),
];

/// Replay-pipeline metrics of every workload that builds and replays
/// miss streams.
const REPLAY_LAYERS: [&str; 14] = [
    "workloads.ns_per_access",
    "packed.ns_per_access",
    "packed.bytes_per_access",
    "cache.ns_per_access",
    "cache.miss_ratio",
    "miss_stream.bytes_per_event",
    "miss_stream.ns_per_event",
    "controller.ns_per_lookup",
    "dram.ns_per_access",
    "dram.accesses",
    "dram.row_hit_rate",
    "dram.avg_queue_ns",
    "system.ns_per_event",
    "system.coverage",
];

/// The per-layer metrics `workload` exercises. Each must read non-zero
/// in its traced run: a layer value falls back to 0 when its spans or
/// its measurement are missing, which would otherwise read as perfect.
/// (`system.self_ns_per_event` and `trace.overhead_pct` are differences
/// that may be near 0, and are left out.)
fn exercised(workload: &str) -> Vec<String> {
    let (kernels, own): (&[KernelKind], &[&str]) = match workload {
        "grid-replay" => (
            &KernelKind::ALL,
            &[
                "system.events_per_s",
                "simpoint.select_s",
                "simpoint.replayed_frac",
                "simpoint.ns_per_replayed_event",
                "simpoint.sampled_err_pct",
                "store.save_ns_per_byte",
                "store.load_ns_per_byte",
                "store.blob_bytes",
                "store.hit_rate",
                "campaign.filter_builds",
                "campaign.store_hits",
                "campaign.cold_start_s",
                "campaign.warm_start_s",
            ],
        ),
        _ => (
            &[],
            &[
                "abft.compute_s",
                "abft.checksum_s",
                "abft.verify_s",
                "abft.assisted_verify_s",
                "abft.overhead_pct",
                "abft.corrected_frac",
            ],
        ),
    };
    let mut names: Vec<String> = own.iter().map(|n| n.to_string()).collect();
    names.push("trace.spans".into());
    if !kernels.is_empty() {
        names.extend(REPLAY_LAYERS.iter().map(|n| n.to_string()));
    }
    for kind in kernels {
        names.extend(
            PER_KERNEL
                .iter()
                .filter(|(n, _)| *n != "system.self_ns_per_event")
                .map(|(n, _)| format!("{n}.{}", kind.label())),
        );
    }
    names
}

/// Count one check per layer `workload` exercises: its metric must be
/// reported, finite and non-zero.
pub fn check_exercised(checks: &mut Checks, workload: &str, metrics: &[Metric]) {
    for name in exercised(workload) {
        let value = metrics.iter().find(|m| m.name == name).map(|m| m.value);
        let ok = checks.check(value.is_some_and(|v| v.is_finite() && v != 0.0), || {
            format!("{name}: the layer was not measured ({value:?})")
        });
        println!("layer {name}: {value:?} {}", if ok { "measured" } else { "MISSING" });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replay-pipeline layer figures over the spans and builds of the cells
/// whose name starts with `prefix` (`""` for the whole workload).
fn replay_layers(run: &Run, prefix: &str) -> Vec<(&'static str, f64)> {
    let t = &run.tracer;
    let builds: Vec<_> =
        run.builds.iter().filter(|b| format!("{}/", b.kernel).starts_with(prefix)).collect();
    let sum =
        |f: fn(&crate::layers::BuildInfo) -> u64| builds.iter().map(|b| f(b) as f64).sum::<f64>();
    let (accesses, events) = (sum(|b| b.accesses), sum(|b| b.events));
    let (filter_ns, _) = t.total("cache.filter", prefix);
    let (drain_ns, _) = t.total("packed.replay", prefix);
    let decode = t.ns_per("pass.decode", prefix);
    let lookup = t.ns_per("pass.decode_lookup", prefix);
    let dram = t.ns_per("pass.decode_lookup_dram", prefix);
    let simulate = t.ns_per("system.simulate", prefix);
    // The DRAM pass issues more than one DRAM request per event when a
    // demand miss evicts a dirty line; lookups and DRAM accesses are
    // counted per request.
    let requests: f64 = run
        .dram
        .iter()
        .filter(|(cell, _)| cell.starts_with(prefix))
        .map(|(_, d)| (d.reads + d.writes) as f64)
        .sum();
    let (_, pass_events) = t.total("pass.decode_lookup_dram", prefix);
    let per_request = ratio(pass_events as f64, requests);
    let miss_ratio =
        ratio(builds.iter().map(|b| b.miss_ratio * b.accesses as f64).sum::<f64>(), accesses);
    vec![
        ("workloads.ns_per_access", t.ns_per("workloads.build_packed", prefix)),
        ("packed.ns_per_access", t.ns_per("packed.replay", prefix)),
        ("packed.bytes_per_access", ratio(sum(|b| b.packed_bytes), accesses)),
        ("cache.ns_per_access", ratio(filter_ns as f64 - drain_ns as f64, accesses)),
        ("cache.miss_ratio", miss_ratio),
        ("miss_stream.bytes_per_event", ratio(sum(|b| b.ms_bytes), events)),
        ("miss_stream.ns_per_event", decode),
        ("controller.ns_per_lookup", (lookup - decode) * per_request),
        ("dram.ns_per_access", (dram - lookup) * per_request),
        ("system.ns_per_event", simulate),
        ("system.self_ns_per_event", if simulate > 0.0 { simulate - dram } else { 0.0 }),
        ("system.coverage", ratio(dram, simulate)),
    ]
}

/// The per-layer metrics of a traced run.
fn layer_metrics(run: &Run) -> Vec<Metric> {
    let mut values = run.layer.clone();
    for (name, v) in replay_layers(run, "") {
        values.insert(name, v);
    }
    let d = run.dram.iter().fold([0u64; 3], |a, (_, s)| {
        [a[0] + s.reads + s.writes, a[1] + s.row_hits, a[2] + s.refresh_stalls]
    });
    let queue_ns: f64 = run.dram.iter().map(|(_, s)| s.queue_ns_total).sum();
    values.insert("dram.accesses", d[0] as f64);
    values.insert("dram.row_hit_rate", ratio(d[1] as f64, d[0] as f64));
    values.insert("dram.refresh_stall_frac", ratio(d[2] as f64, d[0] as f64));
    values.insert("dram.avg_queue_ns", ratio(queue_ns, d[0] as f64));
    let plain = stats::median(&run.iter_s).unwrap_or(0.0);
    let traced = stats::median(&run.iter_traced_s).unwrap_or(plain);
    values.insert("trace.overhead_pct", 100.0 * ratio(traced - plain, plain));
    values.insert("trace.spans", run.tracer.len() as f64);

    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect();
    for kind in KernelKind::ALL {
        let prefix = format!("{}/", kind.label());
        let per = replay_layers(run, &prefix);
        for &(name, unit) in &PER_KERNEL {
            let value = per.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            out.push(Metric { name: format!("{name}.{}", kind.label()), unit, value });
        }
    }
    out
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let cells = run.cell_means();
    let values = [
        stats::median(&run.setup_s),
        Some(cells.iter().sum::<f64>() / 1e3),
        stats::median(&cells),
        stats::p90(&cells),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric {
            name: name.to_string(),
            unit,
            value: v.unwrap_or(f64::NAN),
        })
        .collect()
}

/// The metrics this run reports, with a summary line per metric.
pub fn metrics(run: &Run) -> Vec<Metric> {
    for (cell, ms) in &run.cell_ms {
        let mean = stats::mean(ms).unwrap_or(0.0);
        let med = stats::median(ms).unwrap_or(0.0);
        println!("cell {cell}: mean {mean:.3} ms, median {med:.3} ms of {ms:.3?}");
    }
    let all: Vec<f64> = run.cell_ms.values().flatten().copied().collect();
    let n = all.len();
    let tail = stats::tail_percentile(n).and_then(|p| Some((p, stats::percentile(&all, p)?)));
    match tail {
        Some((p, v)) => println!(
            "cell samples: n={n} over {} cells, p{p:.1} = {v:.3} ms (highest percentile with 10 beyond)",
            run.cell_ms.len()
        ),
        None => println!("cell samples: n={n}, too few for a tail percentile with 10 beyond"),
    }
    println!(
        "set-ups: {:?} s; untraced iterations: {:?} s, spread {:.4}",
        run.setup_s,
        run.iter_s,
        stats::spread(&run.iter_s).unwrap_or(0.0)
    );
    if run.traced {
        layer_metrics(run)
    } else {
        end_to_end(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_names() -> Vec<String> {
        let mut names: Vec<String> = LAYERS.iter().map(|(n, _)| n.to_string()).collect();
        for kind in KernelKind::ALL {
            names.extend(PER_KERNEL.iter().map(|(n, _)| format!("{n}.{}", kind.label())));
        }
        names
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_and_unit() {
        let mut names = layer_names();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        assert!(names.len() - END_TO_END.len() <= 128);
        let units = LAYERS.iter().chain(&PER_KERNEL).chain(&END_TO_END).map(|(_, u)| *u);
        assert!(units.clone().all(stats::valid_unit));
        assert!(names.iter().all(|n| stats::valid_name(n)));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = json.matches("\"name\": ").count();
        let mut names = layer_names();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        for n in &names {
            assert!(json.contains(&format!("\"name\": \"{n}\"")), "{n} is not declared");
        }
        // Every declared name is a metric or a workload.
        assert_eq!(declared, names.len() + crate::WORKLOADS.len());
    }

    #[test]
    fn exercised_layers_are_reported_metrics() {
        let names = layer_names();
        for workload in crate::WORKLOADS {
            let exercised = exercised(workload);
            assert!(exercised.len() > 1, "{workload} exercises its own layers");
            for n in &exercised {
                assert!(names.contains(n), "{workload}: {n} is not a per-layer metric");
            }
        }
        assert!(exercised("abft-solve").iter().all(|n| !n.starts_with("dram.")));
    }

    #[test]
    fn a_missing_layer_is_a_failed_check() {
        let metric = |name: &str, value: f64| Metric { name: name.into(), unit: "s", value };
        let all: Vec<Metric> = exercised("abft-solve").iter().map(|n| metric(n, 1.5)).collect();
        let mut c = Checks::default();
        check_exercised(&mut c, "abft-solve", &all);
        assert_eq!((c.attempted, c.failed), (all.len() as u64, 0));
        let mut zeroed = all;
        zeroed[0].value = 0.0;
        zeroed.pop();
        let mut c = Checks::default();
        check_exercised(&mut c, "abft-solve", &zeroed);
        assert_eq!(c.failed, 2);
    }
}
