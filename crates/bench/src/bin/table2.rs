//! Regenerates Table 2: elapsed-time overheads for the five
//! workloads under Ext3 vs PASSv2 and NFS vs PA-NFS.
//!
//! ```text
//! cargo run --release -p bench --bin table2
//! ```

fn main() {
    print!("{}", bench::table2());
}
