//! A monitor's evolving state, owned by one value.
//!
//! Everything about an installed monitor that changes after install lives
//! in its [`MonitorState`]: enablement and watchdog state, hysteresis,
//! `DELTA` state, its overhead account, its timers' next ticks and its
//! pending `RETRAIN` retries. What is fixed at install (the compiled spec,
//! bound store slots, fingerprint) lives beside it in the engine. An engine
//! checkpoint is the collection of these values and a restore assigns them,
//! so no evolving field can be left out of a checkpoint.
//!
//! This module also holds the state's line encoding inside a checkpoint
//! (see [`super::checkpoint`] for the format as a whole).

use std::fmt::Write as _;

use simkernel::Nanos;

use crate::compile::CompiledGuardrail;
use crate::error::{GuardrailError, Result};
use crate::monitor::hysteresis::{Hysteresis, HysteresisState, OutcomeRing};
use crate::monitor::overhead::OverheadAccount;
use crate::monitor::resilience::RETRY_ATTEMPTS;
use crate::spec::check::TimerSpec;
use crate::store::wal::crc32;
use crate::vm::DeltaState;

/// A `RETRAIN` awaiting its backoff-scheduled retry. The monitor that
/// holds it is charged for the retries and the command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingRetrain {
    /// The model to retrain.
    pub model: String,
    /// Retries already spent (0 = first retry pending).
    pub attempt: u32,
    /// When the next retry is due.
    pub next_attempt: Nanos,
}

/// Everything about one installed monitor that evolves after install.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorState {
    /// Whether the monitor evaluates (incremental deployment, §3.3).
    pub enabled: bool,
    /// Set once the watchdog disables the monitor.
    pub watchdog_tripped: bool,
    /// Rule faults since the last clean evaluation (watchdog input).
    pub consecutive_faults: u32,
    /// Debounce window, cooldown phase and suppression count.
    pub hysteresis: HysteresisState,
    /// `DELTA` state, one per program in [`CompiledGuardrail::programs`]
    /// order.
    pub deltas: Vec<DeltaState>,
    /// The monitor's counters.
    pub account: OverheadAccount,
    /// Each timer's next tick, in timer order; `None` once the chain has
    /// passed its stop time.
    pub next_due: Vec<Option<Nanos>>,
    /// `RETRAIN`s awaiting a backoff retry.
    pub retrains: Vec<PendingRetrain>,
}

impl MonitorState {
    /// The state of `compiled` installed at `now`: enabled, default
    /// hysteresis, nothing read or counted, and each timer first due at its
    /// start time or at `now`, whichever is later.
    pub(crate) fn new(compiled: &CompiledGuardrail, now: Nanos) -> Self {
        MonitorState {
            enabled: true,
            watchdog_tripped: false,
            consecutive_faults: 0,
            hysteresis: HysteresisState::new(Hysteresis::default()),
            deltas: compiled.programs().map(DeltaState::for_program).collect(),
            account: OverheadAccount::default(),
            next_due: compiled
                .timers
                .iter()
                .map(|t| Some(t.start.max(now)).filter(|&first| first <= t.stop))
                .collect(),
            retrains: Vec::new(),
        }
    }

    /// This checkpointed state as the state of the installed `compiled`:
    /// it must have one `DELTA` state per program, sized to that program's
    /// key table, and one entry per timer.
    pub(crate) fn fitted_to(&self, compiled: &CompiledGuardrail) -> Result<Self> {
        let key_tables_match = self
            .deltas
            .iter()
            .map(DeltaState::len)
            .eq(compiled.programs().map(|p| p.keys.len()));
        if !key_tables_match || self.next_due.len() != compiled.timers.len() {
            return Err(GuardrailError::Config(format!(
                "checkpointed state of '{}' does not fit its installed programs and timers",
                compiled.name
            )));
        }
        Ok(self.clone())
    }

    /// Writes this state's checkpoint lines for monitor `name`:
    ///
    /// ```text
    /// monitor <name> <fingerprint> <enabled> <tripped> <faults> <key-table sizes>
    /// hyst <threshold> <window> <cooldown> <last-fire> <suppressed> <recent>
    /// account <15 counters, see `write_account`>
    /// timer <next-due>                   one per timer, in order
    /// delta <program> <key> <f64 bits>   one per key read
    /// retrain <model> <attempt> <next-attempt>
    /// ```
    ///
    /// Key-table sizes are comma-separated, one per program (`-` for a
    /// monitor without programs); an absent time is `-`.
    pub(crate) fn encode(&self, name: &str, fingerprint: u32, out: &mut Vec<u8>) {
        out.put("monitor ")
            .put(name)
            .put(" ")
            .put_hex(u64::from(fingerprint), 8)
            .put_fields([
                u64::from(self.enabled),
                u64::from(self.watchdog_tripped),
                u64::from(self.consecutive_faults),
            ]);
        for (i, deltas) in self.deltas.iter().enumerate() {
            out.put(if i == 0 { " " } else { "," })
                .put_u64(deltas.len() as u64);
        }
        if self.deltas.is_empty() {
            out.put(" -");
        }
        let h = &self.hysteresis;
        out.put("\nhyst")
            .put_fields([
                u64::from(h.config.trip_threshold),
                u64::from(h.config.window),
                h.config.cooldown.as_nanos(),
            ])
            .put(" ")
            .put_opt_nanos(h.last_fire)
            .put_fields([h.suppressed])
            .put(" ");
        if h.recent.is_empty() {
            out.put("-");
        }
        out.extend(h.recent.iter().map(|v| if v { b'1' } else { b'0' }));
        out.put("\n");
        write_account(out, "account", &self.account);
        for &due in &self.next_due {
            out.put("timer ").put_opt_nanos(due).put("\n");
        }
        for (program, deltas) in self.deltas.iter().enumerate() {
            for (key, value) in deltas.seen() {
                out.put("delta")
                    .put_fields([program as u64, u64::from(key)])
                    .put(" ")
                    .put_hex(value.to_bits(), 16)
                    .put("\n");
            }
        }
        for r in &self.retrains {
            out.put("retrain ")
                .put(&r.model)
                .put_fields([u64::from(r.attempt), r.next_attempt.as_nanos()])
                .put("\n");
        }
    }

    /// Parses the fields of a `monitor` line after its name and fingerprint:
    /// the watchdog fields and the key-table sizes (`-` for none; a size
    /// fits the `u16` key indices). Everything else starts empty until
    /// [`MonitorState::decode_line`] adds the monitor's other lines.
    pub(crate) fn decode(watchdog: [&str; 3], key_tables: &str) -> Result<Self> {
        let [enabled, tripped, faults] = watchdog;
        let deltas = if key_tables == "-" {
            Vec::new()
        } else {
            key_tables
                .split(',')
                .map(|n| Ok(DeltaState::with_len(usize::from(parse::<u16>(n)?))))
                .collect::<Result<_>>()?
        };
        Ok(MonitorState {
            enabled: parse_flag(enabled)?,
            watchdog_tripped: parse_flag(tripped)?,
            consecutive_faults: parse(faults)?,
            hysteresis: HysteresisState::default(),
            deltas,
            account: OverheadAccount::default(),
            next_due: Vec::new(),
            retrains: Vec::new(),
        })
    }

    /// Adds one of the monitor's `hyst`, `account`, `timer`, `delta` or
    /// `retrain` lines, split into fields.
    pub(crate) fn decode_line(&mut self, fields: &[&str]) -> Result<()> {
        match fields {
            ["hyst", threshold, window, cooldown, last_fire, suppressed, recent] => {
                let recent: Result<OutcomeRing> = match *recent {
                    "-" => Ok(OutcomeRing::default()),
                    bits => bits.chars().map(parse_bit).collect(),
                };
                self.hysteresis = HysteresisState {
                    config: Hysteresis {
                        trip_threshold: parse(threshold)?,
                        window: parse(window)?,
                        cooldown: Nanos::from_nanos(parse(cooldown)?),
                    },
                    recent: recent?,
                    last_fire: parse_opt_nanos(last_fire)?,
                    suppressed: parse(suppressed)?,
                };
            }
            ["account", counters @ ..] => self.account = parse_account(counters)?,
            ["timer", due] => self.next_due.push(parse_opt_nanos(due)?),
            ["delta", program, key, bits] => {
                let value =
                    u64::from_str_radix(bits, 16).map_err(|_| corrupt("bad delta value"))?;
                let deltas = self
                    .deltas
                    .get_mut(parse::<usize>(program)?)
                    .ok_or_else(|| corrupt("delta program out of range"))?;
                if !deltas.set(parse(key)?, f64::from_bits(value)) {
                    return Err(corrupt("delta key out of range"));
                }
            }
            ["retrain", model, attempt, next_attempt] => {
                // A pending retry has retries left: one whose budget is
                // spent was given up when it was spent.
                let attempt = parse(attempt)?;
                if attempt >= RETRY_ATTEMPTS {
                    return Err(corrupt("retrain attempt past the budget"));
                }
                self.retrains.push(PendingRetrain {
                    model: model.to_string(),
                    attempt,
                    next_attempt: Nanos::from_nanos(parse(next_attempt)?),
                });
            }
            _ => return Err(corrupt("unrecognized line")),
        }
        Ok(())
    }
}

/// The first tick strictly after `now` of `timer`'s chain through
/// `anchor` (one of its ticks), or `None` when that falls past the timer's
/// stop time.
pub(crate) fn first_tick_after(anchor: Nanos, timer: &TimerSpec, now: Nanos) -> Option<Nanos> {
    let first = if anchor > now {
        anchor
    } else {
        let interval = timer.interval.as_nanos().max(1);
        let ticks = (now.as_nanos() - anchor.as_nanos()) / interval + 1;
        Nanos::from_nanos(
            anchor
                .as_nanos()
                .saturating_add(interval.saturating_mul(ticks)),
        )
    };
    Some(first).filter(|&first| first <= timer.stop)
}

/// The CRC-32 of `compiled`'s timers and program listings. Checkpointed
/// state restores only into a monitor with the same name and fingerprint,
/// so a `DELTA` value is never attributed to a different key.
pub(crate) fn fingerprint(compiled: &CompiledGuardrail) -> u32 {
    let mut text = String::new();
    for t in &compiled.timers {
        let _ = writeln!(
            text,
            "timer {} {} {}",
            t.start.as_nanos(),
            t.interval.as_nanos(),
            t.stop.as_nanos()
        );
    }
    for program in compiled.programs() {
        let _ = write!(text, "program\n{program}");
    }
    crc32(text.as_bytes())
}

/// Writes `<tag>` and the 15 counters of `account` as one line:
/// evaluations, violations, trips, commands, rule faults, watchdog trips,
/// retrain retries, rule fuel, action fuel, the six action counts.
pub(crate) fn write_account(out: &mut Vec<u8>, tag: &str, a: &OverheadAccount) {
    out.put(tag).put_fields(account_counters(a)).put("\n");
}

/// The 15 counters of `a`, in [`write_account`]'s order.
pub(crate) fn account_counters(a: &OverheadAccount) -> [u64; 15] {
    let [a0, a1, a2, a3, a4, a5] = a.actions;
    [
        a.evaluations,
        a.violations,
        a.trips,
        a.commands_emitted,
        a.rule_faults,
        a.watchdog_trips,
        a.retrain_retries,
        a.rule_fuel,
        a.action_fuel,
        a0,
        a1,
        a2,
        a3,
        a4,
        a5,
    ]
}

/// The checkpoint's text writer: strings verbatim, integers in decimal,
/// hex zero-padded and lowercase — the bytes `write!` with `{}` and
/// `{:0Nx}` produces, without going through `core::fmt`.
pub(crate) trait PutText {
    /// Appends `s`.
    fn put(&mut self, s: &str) -> &mut Self;
    /// Appends `n` in decimal.
    fn put_u64(&mut self, n: u64) -> &mut Self;
    /// Appends the low `digits` hex digits of `n`.
    fn put_hex(&mut self, n: u64, digits: u32) -> &mut Self;
    /// Appends each of `fields` in decimal, each after a space.
    fn put_fields(&mut self, fields: impl IntoIterator<Item = u64>) -> &mut Self {
        for n in fields {
            self.put(" ").put_u64(n);
        }
        self
    }
    /// Appends a time in nanoseconds, or `-` for none.
    fn put_opt_nanos(&mut self, v: Option<Nanos>) -> &mut Self {
        match v {
            Some(n) => self.put_u64(n.as_nanos()),
            None => self.put("-"),
        }
    }
}

/// Lowercase hex digits, by value.
pub(crate) const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl PutText for Vec<u8> {
    fn put(&mut self, s: &str) -> &mut Self {
        self.extend_from_slice(s.as_bytes());
        self
    }

    fn put_u64(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.extend_from_slice(&digits[start..]);
        self
    }

    fn put_hex(&mut self, n: u64, digits: u32) -> &mut Self {
        self.extend(
            (0..digits)
                .rev()
                .map(|i| HEX_DIGITS[(n >> (4 * i)) as usize & 0xf]),
        );
        self
    }
}

/// Parses the counters [`write_account`] writes after its tag.
pub(crate) fn parse_account(fields: &[&str]) -> Result<OverheadAccount> {
    let [ev, vi, tr, cm, rf, wt, rr, rfu, afu, a0, a1, a2, a3, a4, a5] = fields else {
        return Err(corrupt("bad account line"));
    };
    Ok(OverheadAccount {
        evaluations: parse(ev)?,
        violations: parse(vi)?,
        trips: parse(tr)?,
        commands_emitted: parse(cm)?,
        rule_faults: parse(rf)?,
        watchdog_trips: parse(wt)?,
        retrain_retries: parse(rr)?,
        rule_fuel: parse(rfu)?,
        action_fuel: parse(afu)?,
        actions: [
            parse(a0)?,
            parse(a1)?,
            parse(a2)?,
            parse(a3)?,
            parse(a4)?,
            parse(a5)?,
        ],
    })
}

/// The error for any damaged or malformed checkpoint.
pub(crate) fn corrupt(why: &str) -> GuardrailError {
    GuardrailError::Persist(format!("checkpoint corrupt: {why}"))
}

/// Parses a decimal checkpoint field.
pub(crate) fn parse<T: std::str::FromStr>(s: &str) -> Result<T> {
    s.parse().map_err(|_| corrupt("bad integer"))
}

/// Parses a time in nanoseconds, or `-` for none.
pub(crate) fn parse_opt_nanos(s: &str) -> Result<Option<Nanos>> {
    match s {
        "-" => Ok(None),
        n => Ok(Some(Nanos::from_nanos(parse(n)?))),
    }
}

fn parse_flag(s: &str) -> Result<bool> {
    match s {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err(corrupt("bad flag")),
    }
}

fn parse_bit(c: char) -> Result<bool> {
    match c {
        '1' => Ok(true),
        '0' => Ok(false),
        _ => Err(corrupt("bad recent bitstring")),
    }
}
