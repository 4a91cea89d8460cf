//! Feature-level tests of the kernel language: deadline-driven alternate
//! code paths, control flow, scoping, numeric semantics and diagnostics.

use p2g_field::{Age, Region};
use p2g_lang::compile_source;
use p2g_runtime::{NodeBuilder, RunLimits};

fn run(src: &str, ages: u64, workers: usize) -> (p2g_runtime::node::FieldStore, String) {
    let compiled = compile_source(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
    let node = NodeBuilder::new(compiled.program).workers(workers);
    let (_, fields) = node
        .launch(RunLimits::ages(ages))
        .and_then(|n| n.collect())
        .unwrap();
    (fields, compiled.print.take())
}

const DEADLINE_SRC: &str = r#"
timer t1;
int32[] frames age;
int32[] encoded age;
int32[] skipped age;

capture:
  age a;
  local int32 v;
  %{
    timer_reset("t1");
    v = a * 100;
  %}
  store frames(a)[0] = v;

encode:
  age a;
  local int32 v;
  local int32 mark;
  fetch v = frames(a)[0];
  %{
    // Odd ages simulate a load spike that blows the 5 ms budget.
    if (a % 2 == 1) {
      int spin = 0;
      while (timer_expired("t1", 5) == 0) { spin = spin + 1; }
    }
  %}
  %{
    if (timer_expired("t1", 5)) {
      mark = 0 - a;
    } else {
      v = v + 1;
    }
  %}
  store encoded(a)[0] = v;
  store skipped(a)[0] = mark;
"#;

/// [`DEADLINE_SRC`] with one frame in flight at a time: `capture` of age
/// a+1 fetches a token `encode` of age a stores, so no later capture can
/// reset the shared timer while an earlier frame is being encoded, and no
/// encode waits behind another's spin. Every schedule the runtime allows
/// then runs capture(a) → encode(a) → capture(a+1): each frame's budget is
/// measured from its own capture.
const SEQUENCED_DEADLINE_SRC: &str = r#"
timer t1;
int32[] turn age;
int32[] frames age;
int32[] encoded age;
int32[] skipped age;

start:
  local int32 token;
  store turn(0)[0] = token;

capture:
  age a;
  local int32 token;
  local int32 v;
  fetch token = turn(a)[0];
  %{
    timer_reset("t1");
    v = a * 100;
  %}
  store frames(a)[0] = v;

encode:
  age a;
  local int32 v;
  local int32 mark;
  local int32 token;
  fetch v = frames(a)[0];
  %{
    // Odd ages simulate a load spike that blows the 5 ms budget.
    if (a % 2 == 1) {
      int spin = 0;
      while (timer_expired("t1", 5) == 0) { spin = spin + 1; }
    }
  %}
  %{
    if (timer_expired("t1", 5)) {
      mark = 0 - a;
    } else {
      v = v + 1;
    }
  %}
  store encoded(a)[0] = v;
  store skipped(a)[0] = mark;
  store turn(a+1)[0] = token;
"#;

/// The paper's deadline construct: poll a timer, take the alternate path
/// (store to a different field) on expiry.
#[test]
fn deadline_alternate_code_path() {
    // Both stores are declared; the body performs both here (the alternate
    // path writes the skip marker, the primary path increments) — verify
    // that values reflect which branch ran.
    let (fields, _) = run(SEQUENCED_DEADLINE_SRC, 4, 2);
    for a in 0..4u64 {
        let enc = fields
            .fetch_element("encoded", Age(a), &[0])
            .unwrap()
            .as_i64();
        let skip = fields
            .fetch_element("skipped", Age(a), &[0])
            .unwrap()
            .as_i64();
        if a % 2 == 1 {
            // Deadline missed: encoded unchanged, marker set.
            assert_eq!(enc, a as i64 * 100, "age {a}");
            assert_eq!(skip, -(a as i64), "age {a}");
        } else {
            assert_eq!(enc, a as i64 * 100 + 1, "age {a}");
            assert_eq!(skip, 0, "age {a}");
        }
    }
}

/// The same deadline construct under heavy worker parallelism. Concurrent
/// `encode` instances of different ages race on the shared timer table, but
/// write-once fields keep the alternate-path stores consistent: each element
/// holds exactly one coherent branch outcome, stable across re-fetches.
#[test]
fn deadline_alternate_code_path_many_workers() {
    const AGES: u64 = 8;
    let (fields, _) = run(DEADLINE_SRC, AGES, 8);
    for a in 0..AGES {
        let enc = fields
            .fetch_element("encoded", Age(a), &[0])
            .unwrap()
            .as_i64();
        let skip = fields
            .fetch_element("skipped", Age(a), &[0])
            .unwrap()
            .as_i64();
        // Coherence: exactly one of the two branch outcomes, never a mix
        // of a primary encode with an alternate skip marker (or vice
        // versa) — the branch runs once and both its stores land.
        let primary = enc == a as i64 * 100 + 1 && skip == 0;
        let alternate = enc == a as i64 * 100 && skip == -(a as i64);
        assert!(
            primary != alternate,
            "age {a}: incoherent branch outcome (encoded={enc}, skipped={skip})"
        );
        // Odd ages spin until the timer is guaranteed expired: always the
        // alternate path, no matter how the workers interleave. (Even ages
        // may take either branch — a later capture can reset the shared
        // timer under their feet — which is exactly the race this test
        // puts on the write-once store path.)
        if a % 2 == 1 {
            assert!(
                alternate,
                "age {a}: spin loop must force the alternate path"
            );
        }
        // Write-once: a second fetch observes the identical value.
        assert_eq!(
            fields
                .fetch_element("encoded", Age(a), &[0])
                .unwrap()
                .as_i64(),
            enc
        );
        assert_eq!(
            fields
                .fetch_element("skipped", Age(a), &[0])
                .unwrap()
                .as_i64(),
            skip
        );
    }
}

#[test]
fn lexical_scoping_shadows() {
    let src = r#"
int32[] out age;
k:
  local int32 r;
  %{
    int x = 1;
    {
      int x = 10;
      x = x + 5; // inner x = 15
      r = r + x;
    }
    r = r + x; // outer x still 1
  %}
  store out(0)[0] = r;
"#;
    let (fields, _) = run(src, 1, 1);
    assert_eq!(
        fields.fetch_element("out", Age(0), &[0]).unwrap().as_i64(),
        16
    );
}

#[test]
fn while_break_continue() {
    let src = r#"
int32[] out age;
k:
  local int32 r;
  %{
    int i = 0;
    while (1) {
      i = i + 1;
      if (i > 10) break;
      if (i % 2 == 0) continue;
      r = r + i; // 1+3+5+7+9 = 25
    }
  %}
  store out(0)[0] = r;
"#;
    let (fields, _) = run(src, 1, 1);
    assert_eq!(
        fields.fetch_element("out", Age(0), &[0]).unwrap().as_i64(),
        25
    );
}

#[test]
fn integer_vs_float_division() {
    let src = r#"
int32[] iout age;
float64[] fout age;
k:
  local int32 i;
  local float64 f;
  %{
    i = 7 / 2;        // integer division
    f = 7.0 / 2;      // float division
  %}
  store iout(0)[0] = i;
  store fout(0)[0] = f;
"#;
    let (fields, _) = run(src, 1, 1);
    assert_eq!(
        fields.fetch_element("iout", Age(0), &[0]).unwrap().as_i64(),
        3
    );
    assert_eq!(
        fields.fetch_element("fout", Age(0), &[0]).unwrap().as_f64(),
        3.5
    );
}

#[test]
fn declared_type_truncates_on_assignment() {
    let src = r#"
int32[] out age;
k:
  local int32 r;
  %{
    r = 3.9; // int32 slot truncates like C
  %}
  store out(0)[0] = r;
"#;
    let (fields, _) = run(src, 1, 1);
    assert_eq!(
        fields.fetch_element("out", Age(0), &[0]).unwrap().as_i64(),
        3
    );
}

#[test]
fn uint8_field_wraps_like_c() {
    let src = r#"
uint8[] out age;
k:
  local int32 v;
  %{ v = 300; %}
  store out(0)[0] = v;
"#;
    let (fields, _) = run(src, 1, 1);
    assert_eq!(
        fields.fetch_element("out", Age(0), &[0]).unwrap().as_i64(),
        300 % 256
    );
}

#[test]
fn string_output_and_mixed_print() {
    let src = r#"
int32[] out age;
k:
  local int32 v;
  %{
    v = 42;
    print("value:");
    println(v);
  %}
  store out(0)[0] = v;
"#;
    let (_, output) = run(src, 1, 1);
    assert_eq!(output, "value: 42\n");
}

#[test]
fn compile_errors_carry_position_or_kernel() {
    // Lexical.
    let e = compile_source("int32[] f age;\nk:\n %{ let $x = 1; %}")
        .err()
        .unwrap();
    assert!(e.to_string().contains("lex error"), "{e}");
    // Syntactic.
    let e = compile_source("int32[] f age\nk:").err().unwrap();
    assert!(e.to_string().contains("parse error"), "{e}");
    // Semantic.
    let e = compile_source("k:\n local int32 v;\n fetch v = ghost(0);")
        .err()
        .unwrap();
    assert!(e.to_string().contains("unknown field"), "{e}");
}

#[test]
fn whole_2d_field_store_and_slice_fetch() {
    let src = r#"
int32[][] grid age;
int32[] out age;
init:
  local int32[][] g;
  %{
    resize(g, 3, 4);
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 4; ++c)
        put(g, r * 10 + c, r, c);
  %}
  store grid(0) = g;
rowsum:
  age a; index r;
  local int32[] row;
  local int32 s;
  fetch row = grid(a)[r][*];
  %{
    for (int c = 0; c < extent(row, 0); ++c) s += get(row, c);
  %}
  store out(a)[r] = s;
"#;
    let (fields, _) = run(src, 1, 3);
    let sums = fields.fetch("out", Age(0), &Region::all(1)).unwrap();
    // Row r: sum of r*10+c for c in 0..4 = 40r + 6.
    assert_eq!(sums.as_i32().unwrap(), &[6, 46, 86]);
}

/// A constant row next to a whole dimension (`grid(a)[1][*]`) of an
/// implicitly-sized field that an index-variable kernel fills row by row:
/// `take` must wait until the grid's extents settle, then read row 1.
#[test]
fn constant_row_fetch_of_growing_field() {
    let src = r#"
int32[] rows age;
int32[][] grid age;
int32[] out age;
init:
  age a;
  local int32[] r;
  %{
    resize(r, 3);
    for (int i = 0; i < 3; ++i) put(r, i, i);
  %}
  store rows(a) = r;
fill:
  age a; index y;
  local int32 v;
  local int32[][] row;
  fetch v = rows(a)[y];
  %{
    // One row, shaped 1x4: the payload's rank sizes the whole dimension
    // of an age that has no extents yet.
    resize(row, 1, 4);
    for (int c = 0; c < 4; ++c) put(row, a * 100 + v * 10 + c, 0, c);
  %}
  store grid(a)[y][*] = row;
take:
  age a;
  local int32[] row;
  local int32 s;
  fetch row = grid(a)[1][*];
  %{
    for (int c = 0; c < extent(row, 0); ++c) s += get(row, c);
  %}
  store out(a)[0] = s;
"#;
    for workers in [1, 4] {
        let (fields, _) = run(src, 3, workers);
        for a in 0..3u64 {
            // Row 1 at age a: sum of 100a + 10 + c for c in 0..4.
            let s = fields.fetch_element("out", Age(a), &[0]).unwrap().as_i64();
            assert_eq!(s, 400 * a as i64 + 46, "age {a}, {workers} workers");
        }
    }
}
