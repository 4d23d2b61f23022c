//! Regenerates Table 3: space overheads of the provenance database
//! and its indexes, as a percentage of the base data written.
//!
//! ```text
//! cargo run --release -p bench --bin table3 [-- --trace]
//! ```
//!
//! With `--trace`, additionally runs a traced PA-NFS Postmark round
//! and prints the per-layer latency attribution plus the Chrome-trace
//! JSON export path (load it in `chrome://tracing` / Perfetto).

use bench::{table3, traced_postmark};

fn main() {
    let t = table3();
    println!("{}", t.space);
    print!("{}", t.rest);

    if std::env::args().any(|a| a == "--trace") {
        let run = traced_postmark(8, true);
        println!();
        println!("Traced PA-NFS Postmark (8-op disclosure batches):");
        println!("{}", run.trace.render_latency_table());
        let path = "target/provscope-table3.json";
        match std::fs::write(path, provscope::chrome_trace_json(&run.trace)) {
            Ok(()) => println!("Chrome trace written to {path}"),
            Err(e) => println!("Chrome trace not written ({path}: {e})"),
        }
    }
}
