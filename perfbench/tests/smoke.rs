//! Runs every workload at smoke size, untraced and traced, and checks that
//! each run passes its own output checks and prints exactly the metric
//! names `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, parsed just far enough for these checks.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object looking up {key}"),
        }
    }

    fn keys(&self) -> Vec<String> {
        match self {
            Json::Obj(m) => m.keys().cloned().collect(),
            _ => panic!("not an object"),
        }
    }

    fn names(&self) -> Vec<String> {
        match self {
            Json::Arr(v) => {
                let mut n: Vec<String> = v
                    .iter()
                    .map(|e| match e.get("name") {
                        Json::Str(s) => s.clone(),
                        other => panic!("name is {other:?}"),
                    })
                    .collect();
                n.sort();
                n
            }
            _ => panic!("not an array"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected '{}' at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    match self.s[self.i] {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Json::Obj(m);
                        }
                        c => panic!("unexpected '{}' in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    match self.s[self.i] {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Json::Arr(v);
                        }
                        c => panic!("unexpected '{}' in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/"))
}

/// Run one workload at smoke size; return the parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_prints_the_declared_metrics_and_passes_its_checks() {
    let bench = benchmark_json();
    let workloads = bench.get("workloads").names();
    let mut expect_wl: Vec<String> = ["am_fine", "am_lossy", "mpi_pingpong", "halo_cg"]
        .map(String::from)
        .to_vec();
    expect_wl.sort();
    assert_eq!(workloads, expect_wl);
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = bench.get(list).names();
        for w in &workloads {
            let result = run(w, trace);
            let mut keys = result.keys();
            keys.sort();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{w}: outputs checked wrong"
            );
            assert_eq!(
                result.get("failed"),
                &Json::Num(0.0),
                "{w}: failed operations"
            );
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let metrics = result.get("metrics");
            assert_eq!(metrics.keys(), declared, "{w} trace={trace}: metric names");
            for name in &declared {
                let m = metrics.get(name);
                assert!(matches!(m.get("value"), Json::Num(_)), "{w}: {name} value");
                assert!(matches!(m.get("unit"), Json::Str(_)), "{w}: {name} unit");
            }
            if !trace {
                for name in &declared {
                    let Json::Num(v) = metrics.get(name).get("value") else {
                        unreachable!()
                    };
                    assert!(*v > 0.0, "{w}: end-to-end metric {name} read {v}");
                }
            }
        }
    }
}

#[test]
fn layer_metrics_read_zero_where_the_layer_does_no_work() {
    let value = |r: &Json, name: &str| match r.get("metrics").get(name).get("value") {
        Json::Num(v) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let fine = run("am_fine", true);
    let lossy = run("am_lossy", true);
    assert!(
        value(&fine, "aggr.mean_batch") > 1.0,
        "aggregation batches on am_fine"
    );
    assert_eq!(
        value(&lossy, "aggr.frames_per_op"),
        0.0,
        "aggregation is off on am_lossy"
    );
    assert_eq!(
        value(&fine, "mu.retransmits_per_op"),
        0.0,
        "am_fine is lossless"
    );
    assert!(
        value(&lossy, "mu.retransmits_per_op") > 0.0,
        "am_lossy retransmits"
    );
    assert_eq!(
        value(&fine, "mpi.isend.ns_p50"),
        0.0,
        "am_fine makes no MPI calls"
    );
}

#[test]
fn parser_reads_what_the_benchmark_prints() {
    let v = Parser::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "d"}}"#);
    assert_eq!(v.get("b").get("c"), &Json::Str("d".into()));
    assert_eq!(
        v.get("a"),
        &Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-2500.0),
            Json::Bool(true),
            Json::Null
        ])
    );
}
