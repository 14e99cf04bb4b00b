//! Metrics, their human-readable table, and the final JSON line.

use crate::run::Verdicts;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value is taken from.
    pub samples: u64,
}

#[derive(Default)]
pub struct Sheet(pub Vec<Metric>);

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }
}

/// A run's result.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub sheet: Sheet,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Prints the metrics table, then the result as the last line.
    pub fn print(&self) {
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let failed = self.failures.len() as u64;
        println!(
            "{:<34} {:>14} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.sheet.0 {
            println!(
                "{:<34} {:>14.4} {:<6} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<34} {:>14.4} {:<6} {:>8}",
            "fail_ratio",
            failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted
        );
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.correct(),
            self.attempted
        )
        .expect("write to String");
        for (i, m) in self.sheet.0.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                json,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The end-to-end metrics of a timed loop.
///
/// Each verdict counts with its pair's best CPU time over the run's
/// passes, the least a check of that pair has cost on this host. Host
/// contention only ever adds CPU time (a neighbour sharing the caches,
/// memory bandwidth or core slows every instruction), and it comes and
/// goes over minutes, so one run's medians could sit 30% above
/// another's; the best of many passes moves far less. Since every pass
/// checks the same pairs, `checks_per_cpu_s_best` is the pass size over
/// the sum of its pairs' best times, and the p50 and p95 are the
/// quantiles of the verdicts' best times.
///
/// Printed beside them: which pair sits at the p50 and p95 ranks (a rank
/// on the boundary between two pair classes flips between runs), each
/// class's share, best and median, and the figures as measured, in CPU
/// and in wall-clock time.
pub fn end_to_end(v: &Verdicts, setup_s: &[f64], setup_wall_s: &[f64], peak_rss_mb: f64) -> Sheet {
    let mut best = vec![f64::INFINITY; v.names.len()];
    for s in &v.samples {
        best[s.pair] = best[s.pair].min(s.cpu_ms);
    }
    let mut order: Vec<usize> = (0..v.samples.len()).collect();
    order.sort_by(|&i, &j| best[v.samples[i].pair].total_cmp(&best[v.samples[j].pair]));
    let cpu: Vec<f64> = order.iter().map(|&i| best[v.samples[i].pair]).collect();
    let n = cpu.len();
    // Mutants are grouped by the pair they were made from.
    let class = |pair: usize| match v.names[pair].split_once("~m") {
        Some((base, _)) => format!("{base}~mutants"),
        None => v.names[pair].clone(),
    };
    for q in [0.5, 0.95] {
        if n == 0 {
            break;
        }
        let r = rank(n, q);
        let around: Vec<String> = (r.saturating_sub(2)..(r + 3).min(n))
            .map(|k| {
                let pair = v.samples[order[k]].pair;
                format!("{}={:.2}", class(pair), best[pair])
            })
            .collect();
        println!(
            "p{:.0} rank {}/{n}: {} (best {:.3} CPU ms of {} passes); ranks {}..: {}",
            q * 100.0,
            r + 1,
            class(v.samples[order[r]].pair),
            cpu[r],
            v.passes,
            r.saturating_sub(2) + 1,
            around.join(" ")
        );
    }
    let mut classes: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in &v.samples {
        let (b, t) = classes.entry(class(s.pair)).or_default();
        b.push(best[s.pair]);
        t.push(s.cpu_ms);
    }
    let mut table: Vec<(String, Vec<f64>, Vec<f64>)> = classes
        .into_iter()
        .map(|(k, (b, t))| (k, sorted(b), sorted(t)))
        .collect();
    table.sort_by(|x, y| quantile(&x.1, 0.5).total_cmp(&quantile(&y.1, 0.5)));
    for (name, b, t) in &table {
        println!(
            "class {name:<24} share={:>5.1}% best={:.3} median={:.3} CPU ms",
            100.0 * t.len() as f64 / n.max(1) as f64,
            quantile(b, 0.5),
            quantile(t, 0.5)
        );
    }
    let measured = sorted(v.samples.iter().map(|s| s.cpu_ms).collect());
    println!(
        "as measured: {:.2} checks per CPU s, verdict p50 {:.3} ms, p95 {:.3} ms CPU time",
        n as f64 * 1e3 / measured.iter().sum::<f64>(),
        quantile(&measured, 0.5),
        quantile(&measured, 0.95)
    );
    let wall = sorted(v.samples.iter().map(|s| s.ms).collect());
    println!(
        "wall clock: setup {:.4} s, {:.2} checks/s, verdict p50 {:.3} ms, p95 {:.3} ms",
        quantile(&sorted(setup_wall_s.to_vec()), 0.5),
        n as f64 / v.timed_s(),
        quantile(&wall, 0.5),
        quantile(&wall, 0.95)
    );
    let setups = sorted(setup_s.to_vec());
    let mut sheet = Sheet::default();
    sheet.put("setup_s", quantile(&setups, 0.5), "s", setups.len() as u64);
    sheet.put(
        "checks_per_cpu_s_best",
        n as f64 * 1e3 / cpu.iter().sum::<f64>(),
        "1/s",
        n as u64,
    );
    sheet.put("verdict_cpu_ms_p50_best", quantile(&cpu, 0.5), "ms", n as u64);
    sheet.put("verdict_cpu_ms_p95_best", quantile(&cpu, 0.95), "ms", n as u64);
    sheet.put("peak_rss_mb", peak_rss_mb, "MB", 1);
    sheet
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
