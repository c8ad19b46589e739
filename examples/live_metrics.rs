//! Live metrics: scrape a running `FabricRuntime` in Prometheus format.
//!
//! Starts the in-repo scrape server (`FabricRuntime::serve_metrics`, plain
//! `std::net::TcpListener` — no HTTP dependency), submits a batch of work,
//! and fetches `/metrics` with a raw TCP GET to show what Prometheus would
//! see: per-pool worker/busy/up gauges, monotone job counters and the
//! coordinator's outstanding-task gauge.
//!
//! Run with: `cargo run --release --example live_metrics`

use fedci::fabric::{FabricTiming, ThreadedFabric};
use simkit::metrics::{parse_prometheus, MetricsRegistry};
use std::io::{Read as _, Write as _};
use std::sync::{Arc, Mutex};
use unifaas::prelude::*;

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to scrape server");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(response);
    body
}

fn main() {
    let endpoints = [("cluster", 4), ("lab", 2)];
    let fabric = Arc::new(ThreadedFabric::new(&endpoints, &FabricTiming::default()));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as _);

    // The fabric registers and samples its own families; the runtime adds
    // its outstanding-task gauge and serves both. Port 0 lets the OS pick;
    // a real deployment would pass a fixed address and point a Prometheus
    // scrape job (or `curl`) at it.
    let mut registry = MetricsRegistry::new();
    let ids = Mutex::new(fabric.register_metrics(&mut registry));
    let sample = move |reg: &mut MetricsRegistry| {
        fabric.sample_metrics(reg, &mut ids.lock().expect("ids lock"));
    };
    let server = rt
        .serve_metrics("127.0.0.1:0", Arc::new(Mutex::new(registry)), sample)
        .expect("start scrape server");
    let addr = server.local_addr();
    println!("serving metrics at http://{addr}/metrics\n");

    // The builtin `sleep`: 20 ms each, nothing to echo.
    let futures: Vec<_> = (0..16)
        .map(|_| rt.call::<_, ()>("sleep", 20u64, &[]))
        .collect();

    // Scrape mid-flight: busy workers and outstanding tasks are nonzero.
    println!("--- mid-run scrape ---");
    for line in scrape(addr).lines().filter(|l| !l.starts_with('#')) {
        println!("{line}");
    }

    for f in &futures {
        f.get().expect("task failed");
    }
    rt.wait_all();

    // Scrape after the drain: counters keep their totals, gauges go idle.
    println!("\n--- post-run scrape ---");
    let body = scrape(addr);
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        println!("{line}");
    }
    let samples = parse_prometheus(&body).expect("valid exposition");
    let of = |name| samples.iter().filter(move |s| s.name == name);
    let completed: f64 = of("fedci_pool_jobs_completed_total").map(|s| s.value).sum();
    assert_eq!(completed, 16.0, "every job ran exactly once");
    assert!(of("unifaas_outstanding_tasks").all(|s| s.value == 0.0));
    // The server thread stops when `server` drops.
}
