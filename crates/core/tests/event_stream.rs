//! The decision stream's two contracts that no unit test can see from
//! inside the engine:
//!
//! - recording a violation and a non-`REPORT` action allocates nothing:
//!   a batch of violating events allocates no more than a batch of healthy
//!   ones, counted by a per-thread counting allocator (reallocations
//!   included);
//! - the JSON-lines exporter renders every retained event as exactly one
//!   well-formed line, whatever the `REPORT` text holds (quotes,
//!   backslashes, newlines, a `NaN` key), engine events included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use guardrails::monitor::engine::FnEvent;
use guardrails::monitor::{EventKind, EVENT_CAPACITY};
use guardrails::{MonitorEngine, Telemetry};
use simkernel::Nanos;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards every call to [`System`], counting allocations and reallocations
/// per thread, so tests running in parallel do not see each other's.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is a
// thread-local `Cell` with const initialization, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const BATCH: usize = 256;

#[test]
fn a_violating_batch_allocates_no_more_than_a_healthy_one() {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    engine
        .install_str(
            "guardrail oversized { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { SAVE(last_oversized, ARG(0)) } }",
        )
        .unwrap();
    let healthy = [[512.0]; BATCH];
    let violating = [[8192.0]; BATCH];
    let mut now = Nanos::ZERO;
    let mut deliver = |engine: &mut MonitorEngine, args: &[[f64; 1]; BATCH]| {
        let batch: Vec<FnEvent<'_>> = args
            .iter()
            .map(|a| {
                now += Nanos::from_micros(1);
                FnEvent { now, args: a }
            })
            .collect();
        let before = allocations();
        engine.on_function_batch("io_submit", &batch);
        allocations() - before
    };
    // Fill the ring (two events per violation) so it has grown to its
    // bound, and the `SAVE` key's entry exists.
    for _ in 0..EVENT_CAPACITY.div_ceil(2 * BATCH) + 1 {
        deliver(&mut engine, &violating);
    }
    assert_eq!(engine.events().len(), EVENT_CAPACITY);
    let on_violation = deliver(&mut engine, &violating);
    let on_health = deliver(&mut engine, &healthy);
    assert!(
        on_violation <= on_health,
        "{BATCH} violating events allocated {on_violation} times, \
         {BATCH} healthy ones {on_health}"
    );
    assert!(engine.events().overwritten() > 0);
}

/// A JSON value as the stream's lines use them.
#[derive(Debug, PartialEq)]
enum Value {
    Str(String),
    Int(u64),
    Bool(bool),
    Null,
}

/// Parses one line as a flat JSON object, decoding its strings. Rejects
/// anything else: raw control characters, bad escapes, trailing bytes.
fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.chars().peekable();
    let expect = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>, c: char| match chars.next()
    {
        Some(got) if got == c => Ok(()),
        other => Err(format!("expected {c:?}, got {other:?} in {line}")),
    };
    fn string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
        let mut s = String::new();
        loop {
            match chars.next().ok_or("unterminated string")? {
                '"' => return Ok(s),
                '\\' => match chars.next().ok_or("unterminated escape")? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'b' => s.push('\u{8}'),
                    'f' => s.push('\u{c}'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    other => return Err(format!("bad escape \\{other}")),
                },
                c if c < ' ' => return Err(format!("raw control character {c:?}")),
                c => s.push(c),
            }
        }
    }
    expect(&mut chars, '{')?;
    let mut fields = Vec::new();
    loop {
        expect(&mut chars, '"')?;
        let key = string(&mut chars)?;
        expect(&mut chars, ':')?;
        let value = match chars.peek().copied() {
            Some('"') => {
                chars.next();
                Value::Str(string(&mut chars)?)
            }
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some(d) = chars.next_if(char::is_ascii_digit) {
                    digits.push(d);
                }
                Value::Int(digits.parse().map_err(|_| "bad integer")?)
            }
            _ => {
                let word: String =
                    std::iter::from_fn(|| chars.next_if(char::is_ascii_lowercase)).collect();
                match word.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    "null" => Value::Null,
                    _ => return Err(format!("bad value {word:?} in {line}")),
                }
            }
        };
        fields.push((key, value));
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    match chars.next() {
        None => Ok(fields),
        Some(c) => Err(format!("trailing {c:?} in {line}")),
    }
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[test]
fn every_retained_event_exports_as_one_json_line() {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            r#"
guardrail say { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 1 },
    action: { REPORT("a \"quoted\" \\ path\nand a second line", x, odd) } }
guardrail swap { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 1 },
    action: { REPLACE(no_such_slot, safe) } }
"#,
        )
        .unwrap();
    let store = engine.store();
    store.set_quarantine(false);
    store.save("x", 5.0);
    store.save("odd", f64::NAN);
    engine.advance_to(Nanos::from_secs(1));
    let checkpoint = engine.checkpoint();
    engine.restore(&checkpoint).unwrap();

    let stream = engine.events();
    let export = stream.export_json_lines();
    assert!(export.ends_with('\n'));
    let lines: Vec<&str> = export.lines().collect();
    assert_eq!(lines.len(), stream.len(), "one line per retained event");
    let mut kinds = Vec::new();
    for (line, event) in lines.iter().zip(stream.iter()) {
        let fields = parse_object(line).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(field(&fields, "seq"), Some(&Value::Int(event.seq)));
        assert_eq!(
            field(&fields, "at_ns"),
            Some(&Value::Int(event.at.as_nanos()))
        );
        let guardrail = match &event.guardrail {
            Some(name) => Value::Str(name.to_string()),
            None => Value::Null,
        };
        assert_eq!(field(&fields, "guardrail"), Some(&guardrail));
        let text = event.text().map(|t| Value::Str(t.to_string()));
        assert_eq!(field(&fields, "text"), text.as_ref(), "{line}");
        let Some(Value::Str(kind)) = field(&fields, "kind") else {
            panic!("no kind in {line}");
        };
        kinds.push(kind.clone());
    }
    // Two ticks; each: `say` violates and reports, `swap` violates, its
    // REPLACE fails (a notice) and counts as fired.
    let tick = ["violation", "action", "violation", "notice", "action"];
    let expected: Vec<&str> = [&tick[..], &tick[..], &["checkpoint", "restart"]].concat();
    assert_eq!(kinds, expected);
    let report = stream
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Action { text: Some(t), .. } => Some(t.as_str()),
            _ => None,
        })
        .unwrap();
    assert_eq!(
        report,
        "a \"quoted\" \\ path\nand a second line x=5 odd=NaN"
    );
}
