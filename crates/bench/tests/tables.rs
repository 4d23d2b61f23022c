//! The paper's tables as a mechanical oracle: Table 1, Table 2 and
//! the five space rows of Table 3 must reproduce the golden text
//! beside this file, byte for byte, in the debug and the release
//! profile. A change that means to move a cell regenerates the golden
//! (`cargo run -p bench --bin tableN`) and shows the cell in its diff.
//! Table 3's operational counters are not the paper's and are left
//! unpinned: they move with every cache or planner change.

#[test]
fn tables_reproduce_their_goldens() {
    for (table, text, golden) in [
        ("table1", bench::table1(), include_str!("golden/table1.txt")),
        ("table2", bench::table2(), include_str!("golden/table2.txt")),
        (
            "table3 (space rows)",
            bench::table3().space,
            include_str!("golden/table3_space.txt"),
        ),
    ] {
        assert_eq!(text, golden, "{table} moved off its golden");
    }
}
