//! End-to-end CLI contract for `vulcan-sim checkpoint` / `resume`: the
//! artifact files a resumed run writes are byte-identical to the
//! straight run's (the same comparison CI performs with sha256), and
//! every way a checkpoint can be unusable — version skew, truncation,
//! a foreign file — exits 2 with a pointed message, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vulcan-sim"))
}

/// Fresh scratch directory per test (cargo runs tests concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulcan-sim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn config_text(series_out: &std::path::Path) -> String {
    format!(
        r#"{{
  "machine": {{"fast_gb": 2, "slow_gb": 16, "cores": 8}},
  "seconds": 5,
  "seed": 42,
  "policy": "vulcan",
  "workloads": [
    {{"kind": "micro", "name": "a", "rss_pages": 256, "wss_pages": 64, "threads": 2}},
    {{"kind": "micro", "name": "b", "rss_pages": 256, "wss_pages": 64, "threads": 2,
      "prealloc_slow": true}}
  ],
  "series_out": {:?}
}}"#,
        series_out.to_str().unwrap()
    )
}

#[test]
fn static_round_trip_writes_identical_series() {
    let dir = scratch("static");
    let s1 = dir.join("s1.json");
    let cfg = dir.join("cfg.json");
    std::fs::write(&cfg, config_text(&s1)).unwrap();
    run_ok(bin().arg("run").arg(&cfg));
    let ck = dir.join("ck.json");
    run_ok(
        bin()
            .args(["checkpoint"])
            .arg(&cfg)
            .args(["--at", "2", "--out"])
            .arg(&ck),
    );
    let s2 = dir.join("s2.json");
    run_ok(bin().args(["resume"]).arg(&ck).arg("--series-out").arg(&s2));
    let (a, b) = (std::fs::read(&s1).unwrap(), std::fs::read(&s2).unwrap());
    assert!(!a.is_empty());
    assert_eq!(a, b, "resumed series differs from the straight run's");
}

#[test]
fn churn_round_trip_writes_identical_report() {
    let dir = scratch("churn");
    let (c1, c2) = (dir.join("c1.json"), dir.join("c2.json"));
    let ck = dir.join("ck.json");
    run_ok(
        bin()
            .args(["churn", "--duration", "8000000000", "--rate", "6", "--out"])
            .arg(&c1)
            .args(["--checkpoint-at", "3", "--checkpoint-out"])
            .arg(&ck),
    );
    run_ok(bin().args(["resume"]).arg(&ck).arg("--out").arg(&c2));
    let (a, b) = (std::fs::read(&c1).unwrap(), std::fs::read(&c2).unwrap());
    assert!(!a.is_empty());
    assert_eq!(a, b, "resumed churn report differs from the straight run's");
}

#[test]
fn version_skew_and_truncation_exit_2() {
    let dir = scratch("skew");
    let cfg = dir.join("cfg.json");
    std::fs::write(&cfg, config_text(&dir.join("unused.json"))).unwrap();
    let ck = dir.join("ck.json");
    run_ok(
        bin()
            .args(["checkpoint"])
            .arg(&cfg)
            .args(["--at", "1", "--out"])
            .arg(&ck),
    );
    let text = std::fs::read_to_string(&ck).unwrap();

    // A checkpoint from a future format version.
    let skewed = dir.join("ck99.json");
    std::fs::write(&skewed, text.replace("\"version\":1,", "\"version\":99,")).unwrap();
    let out = bin().args(["resume"]).arg(&skewed).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unsupported checkpoint version 99 (this build reads version 1)"),
        "stderr: {err}"
    );

    // A payload cut off mid-write.
    let trunc = dir.join("trunc.json");
    std::fs::write(&trunc, &text[..text.len() / 2]).unwrap();
    let out = bin().args(["resume"]).arg(&trunc).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a vulcan checkpoint"), "stderr: {err}");

    // Not a checkpoint at all.
    let out = bin().args(["resume"]).arg(&cfg).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a vulcan checkpoint"), "stderr: {err}");
}

/// `v` with the value at `path` (object keys, or array indices written
/// as decimal strings) replaced by `new`.
fn replace_at(
    v: &vulcan_json::Value,
    path: &[&str],
    new: vulcan_json::Value,
) -> vulcan_json::Value {
    use vulcan_json::Value;
    let Some((step, rest)) = path.split_first() else {
        return new;
    };
    match v {
        Value::Object(m) => {
            let mut m = m.clone();
            let child = replace_at(m.get(step).expect("path key"), rest, new);
            m.insert(*step, child);
            Value::Object(m)
        }
        Value::Array(a) => {
            let mut a = a.to_vec();
            let i: usize = step.parse().expect("array index");
            a[i] = replace_at(&a[i], rest, new);
            Value::Array(a)
        }
        _ => panic!("path {path:?} runs through a scalar"),
    }
}

/// A checkpoint whose page tables, in-flight queue or heat map are
/// corrupt parses as JSON but must not restore: every case exits 2 with
/// a pointed `invalid checkpoint` message, never a panic or a hang on
/// the first touch.
#[test]
fn corrupt_page_tables_and_inflight_queue_exit_2() {
    use vulcan_json::{snap, Value};
    let dir = scratch("arena");
    let cfg = dir.join("cfg.json");
    std::fs::write(&cfg, config_text(&dir.join("unused.json"))).unwrap();
    let ck = dir.join("ck.json");
    run_ok(
        bin()
            .args(["checkpoint"])
            .arg(&cfg)
            .args(["--at", "1", "--out"])
            .arg(&ck),
    );
    let v = vulcan_json::parse(&std::fs::read_to_string(&ck).unwrap()).unwrap();
    let lookup = |path: &[&str]| {
        path.iter().fold(&v, |v, k| match v {
            Value::Array(a) => &a[k.parse::<usize>().unwrap()],
            _ => v.get(k).unwrap(),
        })
    };
    let space_path = ["state", "workloads", "0", "process", "space"];
    let space = lookup(&space_path);
    let root = snap::field_u64(space, "process_root").unwrap() as usize;
    let root_slots =
        snap::array_u64(&space.get("nodes").unwrap().as_array().unwrap()[root]).unwrap();
    let used = root_slots
        .iter()
        .position(|&c| c != 0)
        .expect("a mapped region");
    let mapped = snap::array_u64(space.get("mapped").unwrap()).unwrap();
    let with_root_slot = |code: u64| {
        let mut slots = root_slots.clone();
        slots[used] = code;
        let root = root.to_string();
        let path = [&space_path[..], &["nodes", root.as_str()]].concat();
        replace_at(&v, &path, snap::u64_array(&slots))
    };
    let tiers = || Value::Array(vec![Value::Str("fast".into()), Value::Str("fast".into())]);
    let twice = [
        ("vpns", snap::u64_array(&[mapped[0], mapped[0]])),
        ("dests", tiers()),
        ("frame_tiers", tiers()),
        ("frame_indices", snap::u64_array(&[0, 1])),
        ("completes", snap::u64_array(&[0, 0])),
        ("retries", snap::u64_array(&[0, 0])),
    ]
    .into_iter()
    .fold(v.clone(), |acc, (field, value)| {
        replace_at(
            &acc,
            &["state", "workloads", "0", "async_migrator", field],
            value,
        )
    });
    let heat_path = [&space_path[..3], &["profiler", "state", "pebs", "heat"]].concat();
    let live = snap::array_u64(lookup(&heat_path).get("live").unwrap()).unwrap();
    let with_heat = |fields: Vec<(&str, Value)>| {
        fields.into_iter().fold(v.clone(), |acc, (field, value)| {
            replace_at(&acc, &[&heat_path[..], &[field]].concat(), value)
        })
    };
    let infinite_heat = with_heat(vec![(
        "heat",
        snap::f64_array(&vec![f64::INFINITY; live.len()]),
    )]);
    // Every slot taken and none counted: a probe for an absent key would
    // never meet an empty slot.
    let full_spill = with_heat(vec![
        (
            "spill_keys",
            snap::u64_array(&((1 << 21)..(1 << 21) + 64).collect::<Vec<u64>>()),
        ),
        ("spill_stamps", snap::u64_array(&[0; 64])),
        ("spill_heat", snap::f64_array(&[0.0; 64])),
        ("spill_reads", snap::f64_array(&[0.0; 64])),
        ("spill_writes", snap::f64_array(&[0.0; 64])),
        ("spill_used", snap::u64_value(0)),
    ]);
    let cases = [
        (
            with_root_slot((1 << 32) | 999_999),
            "node 999999 is past the node arena",
        ),
        (
            with_root_slot(2 << 32),
            "leaf tables belong only in level-1 nodes",
        ),
        (
            replace_at(
                &v,
                &[&space_path[..], &["mapped"]].concat(),
                snap::u64_array(&[&[mapped[0] + 1], &mapped[1..]].concat()),
            ),
            "mapped list entry 0",
        ),
        (twice, "is in flight twice"),
        (infinite_heat, "not non-negative finite"),
        (full_spill, "disagrees with 64 occupied spill keys"),
    ];
    for (i, (corrupt, want)) in cases.iter().enumerate() {
        let path = dir.join(format!("corrupt{i}.json"));
        std::fs::write(&path, corrupt.to_json()).unwrap();
        let out = bin().args(["resume"]).arg(&path).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "case {i}: {err}");
        assert!(err.contains("invalid checkpoint"), "case {i}: {err}");
        assert!(err.contains(want), "case {i}: {err}");
    }
}

#[test]
fn checkpoint_past_the_run_exits_2() {
    let dir = scratch("past");
    let cfg = dir.join("cfg.json");
    std::fs::write(&cfg, config_text(&dir.join("unused.json"))).unwrap();
    let out = bin()
        .args(["checkpoint"])
        .arg(&cfg)
        .args(["--at", "99", "--out"])
        .arg(dir.join("ck.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("past the run"), "stderr: {err}");
}
