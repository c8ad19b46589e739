//! Quickstart: the UniFaaS programming model on the live runtime.
//!
//! Mirrors the paper's Listing 1 flow: register functions, invoke them to
//! get futures, pass futures as arguments to build a dynamic task graph,
//! and let the runtime place tasks across endpoints.
//!
//! Run with: `cargo run --release --example quickstart`

use fedci::fabric::{FabricTiming, ThreadedFabric};
use std::sync::Arc;
use unifaas::prelude::*;

fn main() {
    // Two in-process "endpoints": a 4-worker cluster and a 2-worker lab
    // machine. Every argument crosses to its endpoint as bytes, exactly as
    // it would to a `unifaas-endpointd` daemon over TCP.
    let fabric = ThreadedFabric::new(&[("cluster", 4), ("lab", 2)], &FabricTiming::default());

    // --- register functions (the `@function` decorator) -----------------
    let functions = fabric.registry();
    functions.register(
        "tokenize",
        typed(|text: String| {
            Ok(text
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>())
        }),
    );
    functions.register("count", typed(|words: Vec<String>| Ok(words.len() as u64)));
    functions.register(
        "sum",
        typed(|Rest(counts): Rest<u64>| Ok(counts.iter().sum::<u64>())),
    );
    let rt = FabricRuntime::new(Arc::new(fabric));

    // --- compose a dynamic task graph via future passing ---------------
    let docs = [
        "the quick brown fox jumps over the lazy dog",
        "federated function serving across distributed cyberinfrastructure",
        "observe predict decide",
        "write once run anywhere",
    ];

    let mut counts = Vec::new();
    for doc in docs {
        // tokenize → count forms a two-stage pipeline per document; the
        // future of `tokenize` is passed straight into `count`.
        let toks = rt.call::<_, Vec<String>>("tokenize", doc.to_string(), &[]);
        counts.push(rt.call::<_, u64>("count", (), &[&toks]));
    }

    // Fan-in: sum all per-document counts.
    let refs: Vec<&WireFuture> = counts.iter().map(|count| &**count).collect();
    let total = rt.call::<_, u64>("sum", (), &refs);

    let total_words = total.get().expect("workflow failed");
    println!("word count across {} documents: {total_words}", docs.len());
    assert_eq!(total_words, 22);

    rt.wait_all();
    println!("all tasks drained; endpoints: {:?}", rt.fabric().labels());
}
