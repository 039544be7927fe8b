//! The benchmark's own tests, at smoke size: the registry matches
//! `BENCHMARK.json`, every run prints every metric with its unit and a
//! result line that parses, and the outside-driven trial loop matches
//! `classify_trial`.

use std::collections::BTreeMap;
use std::process::Command;

use avf_inject::{
    classify_trial, golden_run_checkpointed, shard_trials, InjectionTarget, SamplingPlan,
};
use avf_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use avf_perfbench::traced::{classify_traced, TrialLoop};
use avf_perfbench::workload::{self, Sizes, Workload};
use avf_sim::InjectionSim;

/// A parsed JSON value (a strict parser: any deviation from RFC 8259
/// grammar is an error, which is what guards against unquoted fields).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(x) => *x,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.ws();
                    let Value::Str(key) = self.string()? else {
                        unreachable!()
                    };
                    self.ws();
                    self.eat(":")?;
                    pairs.push((key, self.value()?));
                    self.ws();
                    if self.eat(",").is_err() {
                        self.eat("}")?;
                        return Ok(Value::Obj(pairs));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat(",").is_err() {
                        self.eat("]")?;
                        return Ok(Value::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.i;
                self.i += 1;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                let leading_zero = text.trim_start_matches('-').starts_with('0')
                    && text.trim_start_matches('-').len() > 1
                    && !text.trim_start_matches('-')[1..].starts_with(['.', 'e', 'E']);
                if leading_zero || text.ends_with('.') || text.contains(".e") {
                    return Err(format!("malformed number {text:?}"));
                }
                text.parse()
                    .map(Value::Num)
                    .map_err(|_| format!("malformed number {text:?}"))
            }
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<Value, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(Value::Str(out)),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                c if c < 0x20 => return Err("control character in string".to_owned()),
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.s.len() && (self.s[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.i = end;
                }
            }
        }
    }
}

#[test]
fn parser_rejects_an_unquoted_string_field() {
    assert!(parse(r#"{"pr": cur}"#).is_err());
    assert!(parse(r#"{"pr": "cur", "x": [1, 2.5e-3, -0.0]}"#).is_ok());
    assert!(parse("{\"a\": 01}").is_err());
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn assert_same_metrics(listed: &Value, registry: &[MetricDef]) {
    let listed = listed.arr();
    assert_eq!(listed.len(), registry.len());
    for (entry, def) in listed.iter().zip(registry) {
        assert_eq!(entry.get("name").unwrap().str(), def.name);
        assert_eq!(entry.get("unit").unwrap().str(), def.unit, "{}", def.name);
        assert_eq!(
            entry.get("better").unwrap().str(),
            def.better.name(),
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let bench = benchmark_json();
    assert_same_metrics(bench.get("end_to_end").unwrap(), END_TO_END);
    assert_same_metrics(bench.get("per_layer").unwrap(), PER_LAYER);
    let names: Vec<&str> = bench
        .get("workloads")
        .unwrap()
        .arr()
        .iter()
        .map(|w| w.get("name").unwrap().str())
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for m in bench.get("end_to_end").unwrap().arr() {
        let bound = m.get("bound").unwrap().num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}

/// Runs the benchmark binary at smoke size and returns its stdout.
fn run_smoke(w: Workload, trace: bool) -> String {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-test-{}-{}",
        w.name(),
        trace
    ));
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_avf-perfbench"))
        .current_dir(&scratch)
        .args(["--workload", w.name(), "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .output()
        .expect("run the benchmark binary");
    let _ = std::fs::remove_dir_all(&scratch);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} trace={trace} failed:\n{stdout}",
        w.name()
    );
    stdout
}

#[test]
fn every_run_prints_every_metric_with_its_unit_and_a_parsable_result() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let stdout = run_smoke(w, trace);
            let lines: Vec<&str> = stdout.lines().collect();
            let result = parse(lines.last().unwrap()).expect("result line parses");
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(result.get("attempted").unwrap().num() >= 1.0);
            assert_eq!(result.get("failed").unwrap().num(), 0.0);
            let registry = if trace { PER_LAYER } else { END_TO_END };
            let metrics = result.get("metrics").unwrap();
            assert_eq!(
                metrics.keys(),
                registry.iter().map(|d| d.name).collect::<Vec<_>>()
            );
            let printed: BTreeMap<&str, &str> = lines
                .iter()
                .filter_map(|l| l.strip_prefix("metric "))
                .map(|l| {
                    let mut parts = l.split(' ');
                    let name = parts.next().unwrap();
                    let _value = parts.next().unwrap();
                    (name, parts.next().unwrap())
                })
                .collect();
            for d in registry {
                let m = metrics.get(d.name).unwrap();
                assert_eq!(m.get("unit").unwrap().str(), d.unit);
                assert!(m.get("value").unwrap().num().is_finite());
                assert_eq!(printed.get(d.name), Some(&d.unit), "{} line", d.name);
            }
            // Sample counts sit beside the metrics, one per sampled
            // timing the run took.
            let samples: Vec<&str> = lines
                .iter()
                .filter_map(|l| l.strip_prefix("samples "))
                .collect();
            assert_eq!(samples.is_empty(), !trace, "samples lines in {}", w.name());
            for l in samples {
                let (name, n) = l.split_once(' ').unwrap();
                assert!(registry.iter().any(|d| d.name == name), "{name}");
                assert!(registry.iter().any(|d| d.name == format!("{name}.tail")));
                assert!(n.parse::<usize>().unwrap() >= 1, "{name} has no sample");
            }
            for prefix in ["provenance ", "fingerprint "] {
                let line = lines.iter().find_map(|l| l.strip_prefix(prefix)).unwrap();
                parse(line).unwrap_or_else(|e| panic!("{prefix}line does not parse: {e}"));
            }
            if !trace {
                // A campaign or search ran: the workload's own metric is set.
                let own = match w {
                    Workload::Search => "search_gen_per_s",
                    Workload::AdaptiveMcf => "verdict_s",
                    _ => "inj_per_s",
                };
                assert!(metrics.get(own).unwrap().get("value").unwrap().num() > 0.0);
            }
        }
    }
}

#[test]
fn outside_driven_trial_loop_matches_classify_trial() {
    let sizes = Sizes::smoke();
    let machine = workload::machine();
    for w in [Workload::FixedStressmark, Workload::AdaptiveMcf] {
        let program = workload::program(w);
        let config = workload::campaign_config(w, &sizes, 5);
        let (golden, store) = golden_run_checkpointed(
            &machine,
            &program,
            config.instr_budget,
            config.checkpoint_interval,
        );
        let decoded = store.decode_all(&machine, &program).unwrap();
        let plan = SamplingPlan::new(&machine, &InjectionTarget::ALL, 160, golden.cycles, 5, None);
        let shard = shard_trials(plan.trials(), 1).remove(0);
        let fresh = || {
            let mut s = InjectionSim::new(&machine, &program, config.instr_budget);
            s.set_cycle_budget(avf_inject::cycle_budget_of(golden.cycles));
            s.restore(decoded.nearest(shard[0].cycle).unwrap().1);
            s
        };
        let (mut library, mut outside) = (fresh(), fresh());
        let mut t = TrialLoop::default();
        for trial in &shard {
            let a = classify_trial(&mut library, trial, golden.digest);
            let b = classify_traced(&mut outside, trial, golden.digest, &mut t);
            assert_eq!(a, b, "trial {} on {}", trial.index, w.name());
            assert_eq!(library.cycle(), outside.cycle());
        }
        assert_eq!(t.trials, 160);
        assert!(t.armed > 0, "some trial must be armed on {}", w.name());
    }
}
