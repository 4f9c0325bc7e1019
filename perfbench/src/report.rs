//! The benchmark's output: named metrics with units, operation counts and
//! a context record, printed as JSON lines.

use crate::procfs;
use crate::stats;

/// One reported figure.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The metrics of the requested mode, in listing order.
    pub metrics: Vec<Metric>,
    /// Context entries: key and raw JSON value.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record one operation and whether its checks passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Add a context entry (raw JSON value).
    pub fn context(&mut self, key: &'static str, json: String) {
        self.context.push((key, json));
    }

    /// Add a timed sample's summary (count, median, quartiles, tail) to
    /// the context.
    pub fn sample(&mut self, key: &'static str, xs: &[f64]) {
        if !xs.is_empty() {
            self.context(key, stats::summary_json(xs));
        }
    }
}

/// Quote a string as JSON.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON. Metrics are finite by construction; a
/// non-finite value would make the line unparsable, so it prints as 0 and
/// the caller's checks have already failed the run.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Process-level readings at the start of a run, for the context record.
pub struct RunClock {
    stat: procfs::ProcStat,
    steal: u64,
    start: std::time::Instant,
}

impl RunClock {
    /// Read the counters now.
    pub fn start() -> Self {
        Self {
            stat: procfs::read_stat(),
            steal: procfs::read_steal_ticks(),
            start: std::time::Instant::now(),
        }
    }

    /// Wall, user and system time of this process and host steal time
    /// since [`RunClock::start`], as a JSON object.
    pub fn json(&self) -> String {
        let d = procfs::read_stat().since(&self.stat);
        let steal = procfs::read_steal_ticks().saturating_sub(self.steal);
        format!(
            r#"{{"wall_s": {}, "user_s": {}, "sys_s": {}, "steal_ticks": {steal}, "steal_s": {}, "minflt": {}}}"#,
            self.start.elapsed().as_secs_f64(),
            d.utime as f64 / procfs::TICKS_PER_S,
            d.sys_s(),
            steal as f64 / procfs::TICKS_PER_S,
            d.minflt,
        )
    }
}

/// Print the context line, then the result as the last line of stdout.
pub fn print(outcome: &Outcome, correct: bool) {
    let ctx: Vec<String> = outcome
        .context
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!(r#"{{"context": {{{}}}}}"#, ctx.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_and_numbers() {
        assert_eq!(quote(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(quote("x\ny"), r#""x\u000ay""#);
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "0");
    }

    #[test]
    fn ops_count_failures() {
        let mut o = Outcome::default();
        o.op(true);
        o.op(false);
        o.op(true);
        assert_eq!((o.attempted, o.failed), (3, 1));
    }
}
