//! Regenerates Table 3: space overheads of the provenance database
//! and its indexes, as a percentage of the base data written.
//!
//! ```text
//! cargo run --release -p bench --bin table3 [-- --trace]
//! ```
//!
//! With `--trace`, additionally runs a traced PA-NFS Postmark round at
//! disclosure batch sizes 1, 8 and 32, prints each run's per-layer
//! latency attribution (the EXPERIMENTS.md table), and writes the
//! batch-8 run's Chrome-trace JSON (load it in `chrome://tracing` /
//! Perfetto).

use bench::{table3, traced_postmark, TraceMode, TRACED_DISCLOSURES};

fn main() {
    let t = table3();
    println!("{}", t.space);
    print!("{}", t.rest);

    if std::env::args().any(|a| a == "--trace") {
        println!();
        println!("provscope: per-layer latency attribution, PA-NFS Postmark");
        println!("({TRACED_DISCLOSURES} disclosure transactions per run, virtual clock)\n");
        let mut chrome = String::new();
        for batch_ops in [1, 8, 32] {
            let run = traced_postmark(batch_ops, TraceMode::Unbounded);
            println!("batch_ops = {batch_ops}");
            println!("{}", run.trace.render_latency_table());
            if batch_ops == 8 {
                chrome = provscope::chrome_trace_json(&run.trace);
            }
        }
        let path = "target/provscope-table3.json";
        match std::fs::write(path, chrome) {
            Ok(()) => println!("Chrome trace written to {path}"),
            Err(e) => println!("Chrome trace not written ({path}: {e})"),
        }
    }
}
