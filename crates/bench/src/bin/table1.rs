//! Regenerates Table 1: the provenance record types each
//! provenance-aware application collects.
//!
//! ```text
//! cargo run -p bench --bin table1
//! ```

fn main() {
    print!("{}", bench::table1());
}
