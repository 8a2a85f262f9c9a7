//! Printing results: the human-readable table, the final JSON line, and
//! the comparison against an earlier run's output.

use std::collections::BTreeMap;

use crate::procfs::{json_str, HostStamp};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Printed next to the value: a sample count, or why it reads 0.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            // A ratio with an empty base reads 0, never NaN.
            value: if value.is_finite() { value } else { 0.0 },
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("## {title}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<32} {:>14.3} {:<8}{note}", m.name, m.value, m.unit);
    }
}

/// The result line: the last line of standard output.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads the host line and the metric values out of an earlier run's
/// standard output.
fn parse_earlier(text: &str) -> (Option<HostStamp>, BTreeMap<String, f64>) {
    let host = text
        .lines()
        .find_map(|l| l.strip_prefix("# host "))
        .map(|h| HostStamp {
            nproc: field(h, "nproc").and_then(|v| v.parse().ok()).unwrap_or(0),
            cpu: field(h, "cpu").unwrap_or_default(),
            kernel: field(h, "kernel").unwrap_or_default(),
            rustc: field(h, "rustc").unwrap_or_default(),
            git_rev: field(h, "git_rev").unwrap_or_default(),
        });
    let mut metrics = BTreeMap::new();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    if let Some(body) = last.split_once("\"metrics\": {").map(|(_, b)| b) {
        for entry in body.split("}, ") {
            let Some((name, rest)) = entry.split_once(": {\"value\": ") else {
                continue;
            };
            let value = rest.split(',').next().and_then(|v| v.trim().parse().ok());
            if let Some(v) = value {
                metrics.insert(name.trim().trim_matches('"').to_string(), v);
            }
        }
    }
    (host, metrics)
}

/// The value of `"key": ...` in one flat JSON object of our own making.
fn field(json: &str, key: &str) -> Option<String> {
    let rest = json.split_once(&format!("\"{key}\": "))?.1;
    if let Some(s) = rest.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return Some(out),
                '\\' => out.push(chars.next()?),
                c => out.push(c),
            }
        }
        None
    } else {
        Some(rest.split([',', '}']).next()?.trim().to_string())
    }
}

/// Prints each metric against the same metric of an earlier run, and
/// flags the comparison when the two ran on different hosts.
pub fn print_comparison(earlier: &str, host: &HostStamp, metrics: &[Metric]) {
    let (old_host, old) = parse_earlier(earlier);
    println!("## comparison with an earlier run");
    match old_host {
        None => {
            println!("  HOST UNKNOWN: the earlier output has no host line; deltas may not compare")
        }
        Some(h) => {
            let diff = host.differences(&h);
            if diff.is_empty() {
                println!(
                    "  same host; earlier rev {}, this rev {}",
                    h.git_rev, host.git_rev
                );
            } else {
                println!(
                    "  HOST MISMATCH ({}): these deltas compare different machines, not commits",
                    diff.join(", ")
                );
            }
        }
    }
    for m in metrics {
        match old.get(&m.name) {
            Some(&o) if o != 0.0 => println!(
                "  {:<32} {:>14.3} -> {:>14.3} {:<8} ({:+.1}%)",
                m.name,
                o,
                m.value,
                m.unit,
                (m.value / o - 1.0) * 100.0
            ),
            Some(&o) => println!(
                "  {:<32} {:>14.3} -> {:>14.3} {}",
                m.name, o, m.value, m.unit
            ),
            None => println!("  {:<32} not in the earlier run", m.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earlier_output_round_trips() {
        let host = HostStamp {
            nproc: 2,
            cpu: "Some \"CPU\" @ 2GHz".into(),
            kernel: "6.1".into(),
            rustc: "rustc 1.0".into(),
            git_rev: "abc".into(),
        };
        let metrics = [
            Metric::new("ops_per_s", "1/s", 1234.5),
            Metric::new("op_p50_us", "us", 61.25),
        ];
        let text = format!(
            "# host {}\nnoise\n{}\n",
            host.to_json(),
            json_line(true, 10, 0, &metrics)
        );
        let (h, m) = parse_earlier(&text);
        assert_eq!(h.as_ref(), Some(&host));
        assert_eq!(m.get("ops_per_s"), Some(&1234.5));
        assert_eq!(m.get("op_p50_us"), Some(&61.25));
    }
}
