//! The line-oriented query protocol behind `dramdig serve`.
//!
//! Requests are single lines; responses are short `key = value` blocks
//! terminated by a lone `.` line, so a caller can stream many requests
//! over one pipe and split responses without framing metadata. Every
//! response byte is a pure function of the snapshot contents and the
//! request — no clocks, no iteration-order dependence — which is what
//! lets CI run the same query file twice and `cmp` the outputs.
//!
//! Grammar (one request per line, `#` comments and blank lines ignored):
//!
//! ```text
//! sharing <func>                 e.g.  sharing (13, 16)
//! lookup <fingerprint>           e.g.  lookup 21883b63ac0a9714
//! nearest [k=N] <funcs>          e.g.  nearest k=2 (13, 16), (14, 17)
//! stats
//! quit
//! ```

use std::fmt::Write as _;

use dram_model::{parse, XorFunc};
use telemetry::Registry;

use crate::disk::DiskStats;
use crate::shared::{SharedRegistry, Snapshot};

/// Histogram bounds for the deterministic per-query work counter
/// (candidates the inverted index nominated).
pub const CANDIDATE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Histogram bounds for wall-clock query latency in nanoseconds. Latency
/// is genuinely nondeterministic, so it is reported only through the
/// metrics sidecar — never in protocol responses.
pub const LATENCY_BOUNDS_NS: &[u64] = &[1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Which machines share this bank function (span membership)?
    Sharing(XorFunc),
    /// Exact content-addressed lookup.
    Lookup(u64),
    /// Nearest stored mappings to a partial (rank-deficient) recovery.
    Nearest {
        /// The partial bank-function basis recovered so far.
        funcs: Vec<XorFunc>,
        /// Maximum hits to return.
        k: usize,
    },
    /// Registry summary counters.
    Stats,
    /// End the session.
    Quit,
}

/// Parses one request line. Returns `Ok(None)` for blank and comment
/// lines.
///
/// # Errors
///
/// Returns a protocol error message (the caller renders it as an `err`
/// response, it is not fatal to the session).
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (line, ""),
    };
    match verb {
        "sharing" => {
            let funcs =
                parse::parse_functions(rest).map_err(|e| format!("bad function list: {e}"))?;
            if funcs.len() != 1 {
                return Err(format!(
                    "sharing takes exactly one function, got {}",
                    funcs.len()
                ));
            }
            Ok(Some(Request::Sharing(funcs[0])))
        }
        "lookup" => {
            let fingerprint = u64::from_str_radix(rest, 16)
                .map_err(|e| format!("bad fingerprint `{rest}`: {e}"))?;
            Ok(Some(Request::Lookup(fingerprint)))
        }
        "nearest" => {
            let (k, funcs_text) = match rest.strip_prefix("k=") {
                Some(tail) => {
                    let (k, funcs_text) = tail
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| "nearest k=N needs a function list".to_string())?;
                    let k: usize = k.parse().map_err(|e| format!("bad k `{k}`: {e}"))?;
                    (k, funcs_text.trim())
                }
                None => (3, rest),
            };
            let funcs = parse::parse_functions(funcs_text)
                .map_err(|e| format!("bad function list: {e}"))?;
            if funcs.is_empty() {
                return Err("nearest needs at least one function".to_string());
            }
            Ok(Some(Request::Nearest { funcs, k }))
        }
        "stats" if rest.is_empty() => Ok(Some(Request::Stats)),
        "quit" if rest.is_empty() => Ok(Some(Request::Quit)),
        other => Err(format!("unknown verb `{other}`")),
    }
}

fn render_funcs(funcs: &[XorFunc]) -> String {
    funcs
        .iter()
        .map(XorFunc::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Answers one request against a snapshot. The response is terminated by
/// a `.` line and is byte-deterministic for a given snapshot and request.
/// Deterministic work counters go into `metrics`.
pub fn respond(
    snapshot: &Snapshot,
    stats: &DiskStats,
    request: &Request,
    metrics: &mut Registry,
) -> String {
    metrics.counter_add("registry_requests_total", 1);
    let mut out = String::new();
    match request {
        Request::Sharing(func) => {
            metrics.counter_add("registry_requests_sharing", 1);
            // Machines are deduplicated on interned ranks inside the
            // registry; the matched-entry count is the cost counter.
            let (machines, cost) = snapshot.mem.machines_sharing_costed(*func);
            metrics.observe(
                "registry_query_candidates",
                CANDIDATE_BOUNDS,
                cost.candidates,
            );
            let _ = writeln!(out, "ok sharing {func}");
            let _ = writeln!(
                out,
                "machines = {}",
                machines.into_iter().collect::<Vec<_>>().join(", ")
            );
            let _ = writeln!(out, "entries = {}", cost.matched);
            let _ = writeln!(out, "candidates = {}", cost.candidates);
        }
        Request::Lookup(fingerprint) => {
            metrics.counter_add("registry_requests_lookup", 1);
            let _ = writeln!(out, "ok lookup {fingerprint:016x}");
            match snapshot.mem.lookup(*fingerprint) {
                Some(entry) => {
                    let (funcs, rows, cols) = parse::render_mapping(&entry.mapping);
                    let _ = writeln!(out, "funcs = {funcs}");
                    let _ = writeln!(out, "rows = {rows}");
                    let _ = writeln!(out, "cols = {cols}");
                    let sources: Vec<String> =
                        entry.sources.iter().map(|s| s.to_string()).collect();
                    let _ = writeln!(out, "sources = {}", sources.join(", "));
                }
                None => {
                    let _ = writeln!(out, "not-found");
                }
            }
        }
        Request::Nearest { funcs, k } => {
            metrics.counter_add("registry_requests_nearest", 1);
            let (hits, cost) = snapshot.mem.nearest(funcs, *k);
            metrics.observe(
                "registry_query_candidates",
                CANDIDATE_BOUNDS,
                cost.candidates,
            );
            let partial_rank = hits.first().map_or_else(
                || {
                    let masks: Vec<u64> = funcs.iter().map(|f| f.mask()).collect();
                    dram_model::gf2::bitslice::reduced_row_basis(&masks).len() as u8
                },
                |h| h.partial_rank,
            );
            let _ = writeln!(
                out,
                "ok nearest k={k} partial=[{}] rank={partial_rank}",
                render_funcs(funcs)
            );
            for hit in &hits {
                let machines = snapshot
                    .mem
                    .lookup(hit.fingerprint)
                    .map(|e| e.machines().iter().copied().collect::<Vec<_>>().join(","))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "hit = {:016x} contained={}/{} rank={} machines={machines}",
                    hit.fingerprint, hit.contained, hit.partial_rank, hit.rank
                );
            }
            let _ = writeln!(out, "hits = {}", hits.len());
        }
        Request::Stats => {
            metrics.counter_add("registry_requests_stats", 1);
            let _ = writeln!(out, "ok stats");
            let _ = writeln!(out, "entries = {}", snapshot.mem.len());
            let _ = writeln!(out, "shards = {}", stats.shards);
            let _ = writeln!(out, "segments = {}", stats.segments);
            let _ = writeln!(out, "records = {}", stats.records);
            let _ = writeln!(out, "orphans = {}", stats.orphans.len());
            let _ = writeln!(out, "generation = {}", snapshot.generation);
        }
        Request::Quit => {
            let _ = writeln!(out, "ok quit");
        }
    }
    out.push_str(".\n");
    out
}

/// Runs a whole serve session over a text input: one request per line,
/// responses concatenated in order, stopping after `quit`. The snapshot is
/// taken **once** — every response in a session answers against the same
/// consistent view, and the session output is byte-deterministic.
///
/// # Errors
///
/// Fails only when disk stats cannot be gathered; per-request problems
/// become in-band `err` responses.
pub fn serve_text(
    input: &str,
    shared: &SharedRegistry,
    metrics: &mut Registry,
) -> Result<String, crate::RegistryError> {
    let snapshot = shared.snapshot();
    let stats = shared.stats()?;
    metrics.gauge_set("registry_shards", i64::from(stats.shards));
    metrics.gauge_set("registry_entries", snapshot.mem.len() as i64);
    metrics.gauge_set("registry_segments", stats.segments as i64);
    metrics.gauge_set("registry_records", stats.records as i64);
    let mut out = String::new();
    for line in input.lines() {
        let started = std::time::Instant::now();
        match parse_request(line) {
            Ok(None) => continue,
            Ok(Some(request)) => {
                let quit = request == Request::Quit;
                out.push_str(&respond(&snapshot, &stats, &request, metrics));
                metrics.observe(
                    "registry_query_latency_ns",
                    LATENCY_BOUNDS_NS,
                    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                );
                if quit {
                    break;
                }
            }
            Err(message) => {
                metrics.counter_add("registry_requests_err", 1);
                out.push_str(&format!("err {message}\n.\n"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Record;
    use crate::source::Source;
    use dram_model::MachineSetting;
    use std::fs;

    fn temp_registry(name: &str) -> (std::path::PathBuf, SharedRegistry) {
        let dir = std::env::temp_dir().join(format!(
            "dramdig-registry-query-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let shared = SharedRegistry::create(&dir, 3).unwrap();
        let records: Vec<Record> = (1..=9u8)
            .map(|n| {
                Record::new(
                    MachineSetting::by_number(n).unwrap().mapping(),
                    Source::new(format!("No.{n}"), format!("m{n}-s1-optimized")),
                )
            })
            .collect();
        shared.publish(&records).unwrap();
        (dir, shared)
    }

    #[test]
    fn parses_the_grammar() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("# comment").unwrap(), None);
        assert_eq!(
            parse_request("sharing (13, 16)").unwrap(),
            Some(Request::Sharing(XorFunc::from_bits(&[13, 16])))
        );
        assert_eq!(
            parse_request("lookup 00ff").unwrap(),
            Some(Request::Lookup(0xff))
        );
        assert_eq!(
            parse_request("nearest k=2 (13, 16), (14, 17)").unwrap(),
            Some(Request::Nearest {
                funcs: vec![XorFunc::from_bits(&[13, 16]), XorFunc::from_bits(&[14, 17])],
                k: 2
            })
        );
        assert_eq!(parse_request("stats").unwrap(), Some(Request::Stats));
        assert_eq!(parse_request("quit").unwrap(), Some(Request::Quit));
        assert!(parse_request("sharing").is_err());
        assert!(parse_request("sharing (1), (2)").is_err());
        assert!(parse_request("lookup zz").is_err());
        assert!(parse_request("nearest k=2").is_err());
        assert!(parse_request("frobnicate").is_err());
        assert!(parse_request("stats now").is_err());
    }

    #[test]
    fn serve_session_is_byte_deterministic() {
        let (dir, shared) = temp_registry("determinism");
        let session = "\
# a comment
sharing (14, 18)
sharing (2, 3)
nearest k=2 (13, 16), (14, 17)
lookup 0000000000000000
stats
bogus verb
quit
sharing (14, 18)
";
        let mut m1 = Registry::new();
        let mut m2 = Registry::new();
        let out1 = serve_text(session, &shared, &mut m1).unwrap();
        let out2 = serve_text(session, &shared, &mut m2).unwrap();
        assert_eq!(out1, out2, "responses must be byte-deterministic");
        // The `quit` ends the session: the trailing request is unanswered.
        assert_eq!(out1.matches("ok sharing").count(), 2);
        assert!(out1.contains("machines = No.2, No.3, No.5"));
        assert!(out1.contains("machines = \n"), "empty result renders");
        assert!(out1.contains("not-found"));
        assert!(out1.contains("err unknown verb `bogus`"));
        assert!(out1.contains("ok quit"));
        // Every response block is dot-terminated.
        assert_eq!(
            out1.matches("\n.\n").count(),
            7,
            "7 answered requests: {out1}"
        );
        assert_eq!(m1.counter("registry_requests_total"), 6);
        assert_eq!(m1.counter("registry_requests_err"), 1);
        assert!(m1.histogram_count("registry_query_candidates") >= 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_round_trips_through_the_protocol() {
        let (dir, shared) = temp_registry("lookup");
        let snap = shared.snapshot();
        let entry = snap.mem.entries().next().unwrap();
        let mut metrics = Registry::new();
        let out = serve_text(
            &format!("lookup {:016x}\n", entry.fingerprint),
            &shared,
            &mut metrics,
        )
        .unwrap();
        let (funcs, rows, cols) = parse::render_mapping(&entry.mapping);
        assert!(out.contains(&format!("funcs = {funcs}")));
        assert!(out.contains(&format!("rows = {rows}")));
        assert!(out.contains(&format!("cols = {cols}")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nearest_answers_rank_deficient_queries() {
        let (dir, shared) = temp_registry("nearest");
        let no4 = MachineSetting::by_number(4).unwrap();
        let partial = render_funcs(&no4.mapping().bank_funcs()[..2]);
        let mut metrics = Registry::new();
        let out = serve_text(&format!("nearest k=1 {partial}\n"), &shared, &mut metrics).unwrap();
        assert!(out.contains("contained=2/2"), "{out}");
        assert!(out.contains("machines=No.4"), "{out}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
