//! Exporters: Prometheus text exposition and the strict parser the
//! `promlint` tool and the round-trip property tests are built on.
//!
//! Values are formatted with Rust's shortest-roundtrip `{}` `f64`
//! display, so parsing an export back yields bit-identical values —
//! the property the round-trip tests pin.

use crate::registry::{valid_metric_name, Registry};

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the registry in Prometheus text exposition format:
/// counters, then gauges, then histograms, each family preceded by
/// `# HELP` and `# TYPE` lines.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::with_capacity(4096);
    for (name, help, value) in registry.counters() {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }
    for (name, help, value) in registry.gauges() {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
            fmt_f64(value)
        ));
    }
    for (name, help, view) in registry.histograms() {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (bound, count) in view.bounds.iter().zip(view.buckets) {
            cumulative += count;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_f64(*bound)
            ));
        }
        cumulative += view.buckets.last().copied().unwrap_or(0);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum {}\n", fmt_f64(view.sum)));
        out.push_str(&format!("{name}_count {}\n", view.count));
    }
    out
}

/// The type of a parsed metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsedKind {
    /// `# TYPE ... counter`
    Counter,
    /// `# TYPE ... gauge`
    Gauge,
    /// `# TYPE ... histogram`
    Histogram,
}

/// A parsed histogram family.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHistogram {
    /// `(upper_bound, cumulative_count)` per bucket, in file order; the
    /// final entry is the `+Inf` bucket.
    pub buckets: Vec<(f64, u64)>,
    /// The `_sum` sample.
    pub sum: f64,
    /// The `_count` sample.
    pub count: u64,
}

/// One parsed metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFamily {
    /// Family name.
    pub name: String,
    /// Family type.
    pub kind: ParsedKind,
    /// Scalar value (counters and gauges).
    pub value: f64,
    /// Histogram payload (histograms only).
    pub histogram: Option<ParsedHistogram>,
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s.parse::<f64>().map_err(|_| format!("bad value '{s}'")),
    }
}

/// Strictly parses Prometheus text exposition and validates it:
/// every sample must follow a `# TYPE` line for its family, names
/// must be valid, and each histogram must carry monotone cumulative
/// buckets ending in `+Inf`, a `_sum`, and a `_count` equal to the
/// `+Inf` bucket. Returns the families in file order.
pub fn parse_prometheus(text: &str) -> Result<Vec<ParsedFamily>, String> {
    struct Pending {
        name: String,
        kind: ParsedKind,
        value: Option<f64>,
        buckets: Vec<(f64, u64)>,
        sum: Option<f64>,
        count: Option<u64>,
    }

    fn finish(p: Pending) -> Result<ParsedFamily, String> {
        let name = p.name;
        match p.kind {
            ParsedKind::Counter | ParsedKind::Gauge => {
                let value = p
                    .value
                    .ok_or_else(|| format!("family '{name}' has no sample"))?;
                if p.kind == ParsedKind::Counter && !(value.is_finite() && value >= 0.0) {
                    return Err(format!("counter '{name}' has invalid value {value}"));
                }
                Ok(ParsedFamily {
                    name,
                    kind: p.kind,
                    value,
                    histogram: None,
                })
            }
            ParsedKind::Histogram => {
                let sum = p
                    .sum
                    .ok_or_else(|| format!("histogram '{name}' is missing _sum"))?;
                let count = p
                    .count
                    .ok_or_else(|| format!("histogram '{name}' is missing _count"))?;
                match p.buckets.last() {
                    Some(&(bound, inf_count)) if bound == f64::INFINITY => {
                        if inf_count != count {
                            return Err(format!(
                                "histogram '{name}': _count {count} != +Inf bucket {inf_count}"
                            ));
                        }
                    }
                    _ => return Err(format!("histogram '{name}' is missing the +Inf bucket")),
                }
                let mut prev = 0u64;
                for &(bound, c) in &p.buckets {
                    if c < prev {
                        return Err(format!(
                            "histogram '{name}': bucket le=\"{bound}\" count {c} decreases"
                        ));
                    }
                    prev = c;
                }
                for w in p.buckets.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(format!("histogram '{name}': bucket bounds not ascending"));
                    }
                }
                Ok(ParsedFamily {
                    name,
                    kind: ParsedKind::Histogram,
                    value: sum,
                    histogram: Some(ParsedHistogram {
                        buckets: p.buckets,
                        sum,
                        count,
                    }),
                })
            }
        }
    }

    let mut families = Vec::new();
    let mut pending: Option<Pending> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let at = |msg: String| format!("line {}: {}", lineno + 1, msg);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| at("TYPE line missing name".into()))?;
            let kind = match parts.next() {
                Some("counter") => ParsedKind::Counter,
                Some("gauge") => ParsedKind::Gauge,
                Some("histogram") => ParsedKind::Histogram,
                other => return Err(at(format!("unknown TYPE '{other:?}'"))),
            };
            if !valid_metric_name(name) {
                return Err(at(format!("invalid metric name '{name}'")));
            }
            if let Some(p) = pending.take() {
                families.push(finish(p)?);
            }
            pending = Some(Pending {
                name: name.to_string(),
                kind,
                value: None,
                buckets: Vec::new(),
                sum: None,
                count: None,
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (sample_name, rest) = line
            .split_once([' ', '{'])
            .ok_or_else(|| at(format!("malformed sample '{line}'")))?;
        let p = pending
            .as_mut()
            .ok_or_else(|| at(format!("sample '{sample_name}' before any # TYPE line")))?;
        if !valid_metric_name(sample_name) {
            return Err(at(format!("invalid metric name '{sample_name}'")));
        }
        if p.kind == ParsedKind::Histogram {
            if sample_name == format!("{}_bucket", p.name) {
                let labels = rest
                    .split_once('}')
                    .ok_or_else(|| at("bucket sample missing '}'".into()))?;
                let le = labels
                    .0
                    .strip_prefix("le=\"")
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| at("bucket sample missing le label".into()))?;
                let bound = parse_value(le).map_err(&at)?;
                let count: u64 = labels
                    .1
                    .trim()
                    .parse()
                    .map_err(|_| at(format!("bad bucket count '{}'", labels.1.trim())))?;
                p.buckets.push((bound, count));
            } else if sample_name == format!("{}_sum", p.name) {
                p.sum = Some(parse_value(rest.trim()).map_err(&at)?);
            } else if sample_name == format!("{}_count", p.name) {
                p.count = Some(
                    rest.trim()
                        .parse()
                        .map_err(|_| at(format!("bad count '{}'", rest.trim())))?,
                );
            } else {
                return Err(at(format!(
                    "sample '{sample_name}' does not belong to histogram '{}'",
                    p.name
                )));
            }
        } else {
            if sample_name != p.name {
                return Err(at(format!(
                    "sample '{sample_name}' does not match family '{}'",
                    p.name
                )));
            }
            if p.value.is_some() {
                return Err(at(format!("duplicate sample for '{sample_name}'")));
            }
            p.value = Some(parse_value(rest.trim()).map_err(&at)?);
        }
    }
    if let Some(p) = pending.take() {
        families.push(finish(p)?);
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, RegistryBuilder};

    fn sample_registry() -> Registry {
        let mut b = RegistryBuilder::new();
        let c = b.counter("rpc_calls_total", "RPC calls");
        let g = b.gauge("fleet_power_watts", "Fleet power");
        let h = b.histogram(
            "rpc_rtt_seconds",
            "RPC round-trip time",
            Buckets::explicit(&[0.001, 0.01, 0.1]),
        );
        let mut r = b.build(true);
        r.add(c, 42);
        r.set_gauge(g, 123456.789);
        for v in [0.0005, 0.004, 0.05, 0.5] {
            r.observe(h, v);
        }
        r
    }

    #[test]
    fn prometheus_text_round_trips() {
        let r = sample_registry();
        let text = render_prometheus(&r);
        let families = parse_prometheus(&text).expect("valid exposition");
        assert_eq!(families.len(), 3);
        assert_eq!(families[0].name, "rpc_calls_total");
        assert_eq!(families[0].kind, ParsedKind::Counter);
        assert_eq!(families[0].value, 42.0);
        assert_eq!(families[1].value, 123456.789);
        let h = families[2].histogram.as_ref().unwrap();
        assert_eq!(
            h.buckets,
            vec![(0.001, 1), (0.01, 2), (0.1, 3), (f64::INFINITY, 4)]
        );
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 0.0005 + 0.004 + 0.05 + 0.5);
    }

    #[test]
    fn missing_inf_bucket_is_rejected() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1.5\nh_count 2\n";
        let err = parse_prometheus(text).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let text =
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1.5\nh_count 2\n";
        let err = parse_prometheus(text).unwrap_err();
        assert!(err.contains("_count"), "{err}");
    }

    #[test]
    fn decreasing_buckets_are_rejected() {
        let text =
            "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1.5\nh_count 3\n";
        assert!(parse_prometheus(text).is_err());
    }

    #[test]
    fn sample_before_type_is_rejected() {
        assert!(parse_prometheus("x_total 1\n").is_err());
    }

    #[test]
    fn invalid_names_are_rejected() {
        assert!(parse_prometheus("# TYPE 9lives counter\n9lives 1\n").is_err());
    }

    #[test]
    fn negative_counters_are_rejected() {
        let text = "# TYPE c counter\nc -3\n";
        assert!(parse_prometheus(text).is_err());
    }
}
