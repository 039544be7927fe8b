//! Plaintext metrics/health endpoint.
//!
//! Production-shaped services are scrapable: CI (and any operator with
//! `curl` or `nc`) needs to ask a worker or the broker how it is doing
//! without speaking the binary campaign protocol. This is a minimal
//! HTTP/1.0 responder — enough for `GET /metrics` (one
//! `name value` pair per line, Prometheus-style exposition) and
//! `GET /healthz` (`ok`) — listening on its own port so the metrics
//! plane never contends with, or confuses, the framed campaign plane.
//!
//! The render callback is taken at spawn time and invoked per scrape,
//! so counters are always read fresh; anything
//! `Fn() -> String + Send + Sync` works (the serve and broker binaries
//! pass closures over their live stat structs). A worker's page is
//! [`ServeStats::render_with_eval`]: its session counters plus both
//! instances of the one worker LRU, each rendered by the same helper
//! (`avf_store_cache_*`, `avf_eval_cache_*`).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::{CacheStats, EvalCache, StoreCache};

/// Session/stream counters a `serve` worker exposes alongside the
/// stats of its two caches ([`StoreCache`] and [`EvalCache`]). All
/// relaxed atomics: these are monotone operational counters, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections whose session handler completed cleanly.
    pub sessions_ok: AtomicU64,
    /// Connections whose session handler failed (any [`BackendError`]).
    ///
    /// [`BackendError`]: avf_inject::BackendError
    pub sessions_failed: AtomicU64,
    /// Batches (trial or genome) served to completion.
    pub batches_served: AtomicU64,
    /// Acks (trial events or genome scores) streamed back to drivers.
    pub events_streamed: AtomicU64,
    /// Frames rejected by keyed-hash authentication.
    pub auth_rejects: AtomicU64,
}

/// One cache's hit/miss/eviction/entry `/metrics` lines under `prefix`.
fn cache_lines(out: &mut String, prefix: &str, c: &CacheStats) {
    let entries = c.entries as u64;
    for (name, value) in [
        ("hits", c.hits),
        ("misses", c.misses),
        ("evictions", c.evictions),
        ("entries", entries),
    ] {
        let _ = writeln!(out, "{prefix}_{name} {value}");
    }
}

impl ServeStats {
    /// A fresh zeroed counter set behind an [`Arc`].
    #[must_use]
    pub fn shared() -> Arc<ServeStats> {
        Arc::new(ServeStats::default())
    }

    /// Renders the store-cache and session `/metrics` lines.
    #[must_use]
    pub fn render(&self, cache: &StoreCache) -> String {
        let (mut out, stats) = (String::new(), cache.stats());
        cache_lines(&mut out, "avf_store_cache", &stats);
        let _ = writeln!(out, "avf_store_cache_bytes {}", stats.bytes);
        for (name, counter) in [
            ("sessions_ok", &self.sessions_ok),
            ("sessions_failed", &self.sessions_failed),
            ("batches_served", &self.batches_served),
            ("events_streamed", &self.events_streamed),
            ("auth_rejects", &self.auth_rejects),
        ] {
            let _ = writeln!(out, "avf_serve_{name} {}", counter.load(Ordering::Relaxed));
        }
        out
    }

    /// Renders a worker's whole `/metrics` page: [`ServeStats::render`]
    /// followed by the genome score cache's lines.
    #[must_use]
    pub fn render_with_eval(&self, cache: &StoreCache, eval: &EvalCache) -> String {
        let mut out = self.render(cache);
        cache_lines(&mut out, "avf_eval_cache", &eval.stats());
        out
    }
}

/// Serves `GET /metrics` and `GET /healthz` on `listener` until the
/// process exits. One short-lived thread per scrape; scrapes are rare
/// (CI, a watch loop) and must never block the campaign plane.
fn metrics_loop(listener: &TcpListener, render: &(dyn Fn() -> String + Send + Sync)) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let _ = respond(&stream, render);
    }
}

/// Answers one HTTP request on `stream`.
fn respond(stream: &TcpStream, render: &(dyn Fn() -> String + Send + Sync)) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = match path {
        "/metrics" => ("200 OK", render()),
        "/healthz" => ("200 OK", "ok\n".to_owned()),
        _ => (
            "404 Not Found",
            "unknown path (try /metrics or /healthz)\n".to_owned(),
        ),
    };
    let mut w = stream;
    write!(
        w,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

/// Binds `addr` and serves the metrics endpoint on a background
/// thread, returning the bound address (useful with port 0).
///
/// # Errors
///
/// Returns the I/O error if the address cannot be bound.
pub fn spawn_metrics(
    addr: &str,
    render: impl Fn() -> String + Send + Sync + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || metrics_loop(&listener, &render));
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    }

    #[test]
    fn metrics_and_health_respond_over_plain_http() {
        let hits = Arc::new(AtomicU64::new(41));
        let render_hits = Arc::clone(&hits);
        let addr = spawn_metrics("127.0.0.1:0", move || {
            format!("test_counter {}\n", render_hits.load(Ordering::Relaxed))
        })
        .unwrap();
        let body = get(addr, "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("test_counter 41"), "{body}");
        // Counters are read per scrape, not snapshotted at spawn.
        hits.fetch_add(1, Ordering::Relaxed);
        assert!(get(addr, "/metrics").contains("test_counter 42"));
        assert!(get(addr, "/healthz").contains("ok"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.0 404"));
    }

    /// The value of `name` on a rendered `/metrics` page.
    fn metric(page: &str, name: &str) -> u64 {
        page.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from:\n{page}"))
    }

    #[test]
    fn worker_page_exports_the_eval_cache() {
        use crate::{spawn_local, EvalContext, RemoteEvaluator, ServeOptions};
        use avf_ace::{FaultRates, Fitness};
        use avf_ga::{optimize, FitnessEvaluator, GaParams};

        let opts = ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        };
        let stats = Arc::clone(&opts.stats);
        let cache = Arc::clone(&opts.cache);
        let eval = Arc::clone(&opts.eval_cache);
        let worker = spawn_local(opts).unwrap().to_string();
        let context = EvalContext {
            machine: avf_sim::MachineConfig::baseline(),
            fitness: Fitness::overall(FaultRates::baseline()),
            instr_budget: 4_000,
        };
        let mut remote = RemoteEvaluator::connect(&[worker], None, context).unwrap();
        let params = GaParams {
            population: 4,
            generations: 4,
            ..GaParams::quick()
        };
        optimize(avf_codegen::GENOME_LEN, &params, &mut remote).unwrap();

        // Every lookup happens before its score is sent, so the worker's
        // counters are settled once the search has its last generation.
        let page = stats.render_with_eval(&cache, &eval);
        let hits = metric(&page, "avf_eval_cache_hits");
        let misses = metric(&page, "avf_eval_cache_misses");
        assert!(hits > 0, "elites re-scored across generations must hit");
        assert_eq!(hits, remote.cache_hits());
        assert_ne!(hits, misses, "these sizes tell the two counters apart");
        assert_eq!(metric(&page, "avf_eval_cache_evictions"), 0);
        // One entry per distinct genome: the count the driver reports.
        assert_eq!(
            metric(&page, "avf_eval_cache_entries"),
            remote.evaluations()
        );
        assert!(
            !page.contains("avf_eval_cache_bytes"),
            "unit weights are not bytes"
        );
        assert_eq!(metric(&page, "avf_store_cache_entries"), 0);
        assert_eq!(metric(&page, "avf_serve_sessions_failed"), 0);
    }
}
