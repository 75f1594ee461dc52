//! `/metrics` scrapes: parsing the Prometheus text the server serves,
//! and reconciling it with what the clients sent.
//!
//! The registry is process-global and this process is both server and
//! load generator, so every count is compared with the clients' totals
//! since the process started, and client-side KEM operations land in
//! `rlwe_kem_op_ns` beside the server's.

use crate::load::{Tally, OPS};
use std::net::SocketAddr;

/// One exposition line: metric name, labels, value.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A parsed `/metrics` body.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    /// `GET /metrics` on the server's shared port.
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let resp = rlwe_server::http_get(addr, "/metrics").map_err(|e| format!("scrape: {e}"))?;
        if resp.status != 200 {
            return Err(format!("scrape: HTTP {}", resp.status));
        }
        let body = String::from_utf8(resp.body).map_err(|_| "scrape: body is not UTF-8")?;
        Self::parse(&body)
    }

    fn parse(body: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for line in body
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let bad = || format!("scrape: unparseable line {line:?}");
            let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
            let value: f64 = value.parse().map_err(|_| bad())?;
            let (name, labels) = match series.split_once('{') {
                None => (series, Vec::new()),
                Some((name, rest)) => {
                    let inner = rest.strip_suffix('}').ok_or_else(bad)?;
                    let labels = inner
                        .split(',')
                        .map(|kv| {
                            let (k, v) = kv.split_once('=').ok_or_else(bad)?;
                            Ok((k.to_string(), v.trim_matches('"').to_string()))
                        })
                        .collect::<Result<_, String>>()?;
                    (name, labels)
                }
            };
            samples.push(Sample {
                name: name.to_string(),
                labels,
                value,
            });
        }
        Ok(Self { samples })
    }

    /// Sum of every `name` series whose labels satisfy `keep`.
    fn sum_where(&self, name: &str, keep: impl Fn(&[(String, String)]) -> bool) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && keep(&s.labels))
            .map(|s| s.value)
            .sum()
    }

    /// Sum of every `name` series carrying all of `labels`.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.sum_where(name, |have| {
            labels.iter().all(|(k, v)| label(have, k) == Some(*v))
        })
    }

    /// `rlwe_server_request_ns` p50 for `op`, in ns.
    pub fn dispatch_p50_ns(&self, op: &str) -> f64 {
        self.sum("rlwe_server_request_ns", &[("op", op), ("quantile", "0.5")])
    }

    /// `(sum_ns, count)` of `rlwe_server_request_ns` for `op`.
    pub fn dispatch_sum_count(&self, op: &str) -> (f64, f64) {
        (
            self.sum("rlwe_server_request_ns_sum", &[("op", op)]),
            self.sum("rlwe_server_request_ns_count", &[("op", op)]),
        )
    }

    /// Count of `rlwe_kem_op_ns` for ops whose label starts with
    /// `prefix` (`encap`/`decap`, CPA or CCA) on `param_set`.
    pub fn kem_count(&self, prefix: &str, param_set: &str) -> f64 {
        self.sum_where("rlwe_kem_op_ns_count", |have| {
            label(have, "op").is_some_and(|op| op.starts_with(prefix))
                && label(have, "param_set") == Some(param_set)
        })
    }

    /// `rlwe_kem_op_ns` p50 (ns) for the op labelled exactly `op`.
    pub fn kem_p50_ns(&self, op: &str, param_set: &str) -> f64 {
        self.sum(
            "rlwe_kem_op_ns",
            &[("op", op), ("param_set", param_set), ("quantile", "0.5")],
        )
    }
}

/// The value of label `key`, if present.
fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Checks a scrape against the clients' totals since the process
/// started; returns one line per mismatch.
///
/// * `rlwe_server_requests_total{op}` equals the requests sent per op.
/// * Accepted connections equal client connections plus scrapes (a
///   scrape is accepted before it renders, so it counts itself).
/// * Nothing was shed or rejected at the front door.
/// * Every hello was one client encapsulation and one server
///   decapsulation in `rlwe_kem_op_ns`.
pub fn reconcile(scrape: &Scrape, total: &Tally, scrapes: u64, param_set: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut check = |what: String, got: f64, want: u64| {
        if got != want as f64 {
            problems.push(format!("{what}: /metrics says {got}, clients say {want}"));
        }
    };
    for (op, sent) in OPS.iter().zip(total.sent) {
        let got = scrape.sum("rlwe_server_requests_total", &[("op", op.label())]);
        check(format!("requests_total{{op={}}}", op.label()), got, sent);
    }
    check(
        "connections_accepted_total".into(),
        scrape.sum("rlwe_server_connections_accepted_total", &[]),
        total.connects + scrapes,
    );
    check(
        "connections_rejected_total".into(),
        scrape.sum("rlwe_server_connections_rejected_total", &[]),
        0,
    );
    check(
        "shed_total".into(),
        scrape.sum("rlwe_server_shed_total", &[]),
        0,
    );
    let hellos = total.hello_attempts();
    check(
        format!("rlwe_kem_op_ns_count{{op=encap*,param_set={param_set}}}"),
        scrape.kem_count("encap", param_set),
        hellos,
    );
    check(
        format!("rlwe_kem_op_ns_count{{op=decap*,param_set={param_set}}}"),
        scrape.kem_count("decap", param_set),
        hellos,
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_labelled_and_bare_series() {
        let body = "# HELP x y\n# TYPE x counter\n\
                    rlwe_server_requests_total{op=\"ping\"} 3\n\
                    rlwe_server_shed_total 0\n\
                    rlwe_kem_op_ns{op=\"encap\",param_set=\"P1\",quantile=\"0.5\"} 1234.5\n\
                    rlwe_kem_op_ns_count{op=\"encap_cca\",param_set=\"P1\"} 7\n\
                    rlwe_kem_op_ns_count{op=\"encap\",param_set=\"P1\"} 2\n\
                    rlwe_kem_op_ns_count{op=\"encap\",param_set=\"P2\"} 5\n";
        let s = Scrape::parse(body).unwrap();
        assert_eq!(s.sum("rlwe_server_requests_total", &[("op", "ping")]), 3.0);
        assert_eq!(s.sum("rlwe_server_shed_total", &[]), 0.0);
        assert_eq!(s.kem_p50_ns("encap", "P1"), 1234.5);
        assert_eq!(s.kem_count("encap", "P1"), 9.0);
        assert!(Scrape::parse("no_value_here").is_err());
    }
}
