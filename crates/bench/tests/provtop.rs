//! The operator screen keeps rendering: `provtop` prints three healthy
//! text screens, and with `--json` one object per tick that
//! provscope's own parser reads back, with the flight recorder inside
//! its 2048-span ring and nothing shed.

use std::process::Command;

use provscope::{parse_json, JsonValue};

fn provtop(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_provtop"))
        .args(args)
        .output()
        .expect("provtop runs");
    assert!(
        out.status.success(),
        "provtop {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("provtop prints UTF-8")
}

#[test]
fn text_screens_show_three_healthy_ticks() {
    let text = provtop(&[]);
    assert_eq!(text.matches("== provtop == tick").count(), 3, "{text}");
    assert!(text.contains("health      OK"), "{text}");
}

#[test]
fn json_ticks_parse_and_the_recorder_stays_bounded() {
    let json = provtop(&["--json"]);
    assert_eq!(json.lines().count(), 3, "{json}");
    for line in json.lines() {
        let tick = parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let recorder = |k: &str| {
            tick.get("recorder")
                .and_then(|r| r.get(k))
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("recorder.{k} missing: {line}"))
        };
        assert!(recorder("spans_high_water") <= 2048.0, "{line}");
        assert_eq!(recorder("spans_shed"), 0.0, "{line}");
        assert_eq!(
            tick.get("health").and_then(|h| h.get("healthy")),
            Some(&JsonValue::Bool(true)),
            "{line}"
        );
    }
}
