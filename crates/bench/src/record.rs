//! The one bench record format behind every `bench_runner` tier: the
//! `dsf-bench/v5` envelope, its writer, its strict reader, and the
//! deterministic-drift diff that `bench_runner --check` gates on.
//!
//! # JSON layout (`dsf-bench/v5`)
//!
//! ```json
//! {
//!   "schema": "dsf-bench/v5",
//!   "tier": "executor",
//!   "mode": "quick",
//!   "records": [
//!     {"name": "executor/bfs_wave/path/n=10000/event", "det": {"n": 10000, "m": 9999, "rounds": 10000, "messages": 19998, "activations": 19998}, "wall": {"min_ns": 1, "mean_ns": 2, "max_ns": 3}, "obs": {"threads": 1}}
//!   ]
//! }
//! ```
//!
//! `tier` names the `bench_runner` mode that wrote the report (`executor`,
//! `scale`, `scale-xl`, `conformance`, `service`, `server`, `churn`) and
//! `mode` is `quick` or `full`. Every record value is an unsigned integer
//! in one of three classes, defined by behaviour:
//!
//! * `det` — identical on every machine and at every `DSF_THREADS` value
//!   (rounds, messages, weights, ratios). The exact-match class:
//!   [`Report::diff_det`] compares it and nothing else.
//! * `wall` — wall-clock timings and the rates and speedups derived from
//!   them. Machine-dependent, report-only.
//! * `obs` — report-only configuration, scheduling and memory facts
//!   (`threads`, `steals`, `utilization_milli`, `mem_peak_bytes`).
//!
//! One record per line. Names and keys use only `[a-z0-9_/=.+-]`, so the
//! writer never needs JSON escapes — and the reader *rejects* any escape
//! it meets, along with malformed numbers, duplicate or unknown keys, and
//! missing fields, so a corrupt baseline can never silently pass a gate.

/// Identifier of the emitted JSON layout.
pub const SCHEMA: &str = "dsf-bench/v5";

/// The value classes of a record, in emission order.
const CLASSES: [&str; 3] = ["det", "wall", "obs"];

/// The named values of one class, in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fields(Vec<(String, u64)>);

impl Fields {
    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Sets `key` to `value`, in place if it is already present.
    pub(crate) fn set(&mut self, key: &str, value: u64) {
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.0.push((key.to_string(), value)),
        }
    }

    /// `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// One bench result: a name plus its values, by class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    /// Workload id, e.g. `executor/bfs_wave/path/n=10000/event`.
    pub name: String,
    /// Exact-match values (see the module docs).
    pub det: Fields,
    /// Wall-clock values (report-only).
    pub wall: Fields,
    /// Configuration, scheduling and memory facts (report-only).
    pub obs: Fields,
}

impl Record {
    /// A record with no values yet.
    pub fn new(name: impl Into<String>) -> Record {
        Record {
            name: name.into(),
            ..Record::default()
        }
    }

    /// Adds a `det` value.
    pub fn det(mut self, key: &str, value: u64) -> Record {
        self.det.set(key, value);
        self
    }

    /// Adds a `wall` value.
    pub fn wall(mut self, key: &str, value: u64) -> Record {
        self.wall.set(key, value);
        self
    }

    /// Adds an `obs` value.
    pub fn obs(mut self, key: &str, value: u64) -> Record {
        self.obs.set(key, value);
        self
    }

    /// The classes paired with their names, in `det`, `wall`, `obs` order.
    pub fn classes(&self) -> [(&'static str, &Fields); 3] {
        [("det", &self.det), ("wall", &self.wall), ("obs", &self.obs)]
    }

    fn to_json(&self) -> String {
        let mut s = format!("{{\"name\": \"{}\"", self.name);
        for (class, fields) in self.classes() {
            let values: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            s.push_str(&format!(", \"{class}\": {{{}}}", values.join(", ")));
        }
        s.push('}');
        s
    }
}

/// A full `bench_runner` report: one tier's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The `bench_runner` mode that wrote it, e.g. `executor`.
    pub tier: String,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// All records, in a deterministic order.
    pub records: Vec<Record>,
}

impl Report {
    /// A `tier` report in quick or full mode.
    pub fn new(tier: &str, quick: bool, records: Vec<Record>) -> Report {
        Report {
            tier: tier.to_string(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            records,
        }
    }

    /// Serializes to the `dsf-bench/v5` layout, one record per line.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"tier\": \"{}\",\n  \"mode\": \"{}\",\n  \
             \"records\": [\n{}\n  ]\n}}\n",
            self.tier,
            self.mode,
            records.join(",\n")
        )
    }

    /// Parses a `dsf-bench/v5` document.
    ///
    /// The reader is deliberately strict: malformed numbers (`12x3`),
    /// escaped or unterminated strings, duplicate or unknown keys, and
    /// missing fields are hard errors, never best-effort values —
    /// `--check` must not be able to pass against a corrupt baseline.
    ///
    /// # Errors
    ///
    /// Returns a description of the first defect, prefixed by the path of
    /// keys that leads to it.
    pub fn parse(json: &str) -> Result<Report, String> {
        let mut p = Parser { src: json, i: 0 };
        let (mut schema, mut tier, mut mode, mut records) = (None, None, None, None);
        p.object(|p, key| {
            match key {
                "schema" => {
                    let id = p.string()?;
                    if id != SCHEMA {
                        return Err(format!("{id:?}, expected {SCHEMA:?}"));
                    }
                    schema = Some(id);
                }
                "tier" => tier = Some(p.string()?),
                "mode" => mode = Some(p.string()?),
                "records" => records = Some(p.array(Parser::record)?),
                _ => return Err("unknown key".into()),
            }
            Ok(())
        })?;
        if let Some(c) = p.peek() {
            return Err(format!("trailing {:?} after the document", c as char));
        }
        let missing = |key: &str| format!("missing field {key:?}");
        schema.ok_or_else(|| missing("schema"))?;
        Ok(Report {
            tier: tier.ok_or_else(|| missing("tier"))?,
            mode: mode.ok_or_else(|| missing("mode"))?,
            records: records.ok_or_else(|| missing("records"))?,
        })
    }

    /// Compares the `det` class against a checked-in baseline.
    ///
    /// Returns one human-readable drift description per mismatch (empty =
    /// gate passes). `wall` and `obs` are ignored by construction: they
    /// are machine, configuration and scheduling facts, and the same gate
    /// must pass under any `DSF_THREADS`. A different tier or mode is a
    /// single drift: the two reports measure different workloads.
    pub fn diff_det(&self, baseline: &Report) -> Vec<String> {
        for (what, now, was) in [
            ("tier", &self.tier, &baseline.tier),
            ("mode", &self.mode, &baseline.mode),
        ] {
            if now != was {
                return vec![format!(
                    "{what} {now:?} does not match baseline {what} {was:?}"
                )];
            }
        }
        let mut drifts = Vec::new();
        for b in &baseline.records {
            let Some(r) = self.records.iter().find(|r| r.name == b.name) else {
                drifts.push(format!("{}: record disappeared", b.name));
                continue;
            };
            for (key, was) in b.det.iter() {
                match r.det.get(key) {
                    Some(now) if now == was => {}
                    Some(now) => drifts.push(format!("{}: {key} drifted {was} -> {now}", r.name)),
                    None => drifts.push(format!("{}: {key} disappeared", r.name)),
                }
            }
            for (key, _) in r.det.iter().filter(|(k, _)| b.det.get(k).is_none()) {
                drifts.push(format!("{}: new det value {key} not in baseline", r.name));
            }
        }
        for r in &self.records {
            if !baseline.records.iter().any(|b| b.name == r.name) {
                drifts.push(format!(
                    "{}: new record not in baseline (re-generate it)",
                    r.name
                ));
            }
        }
        drifts
    }
}

/// A cursor over the JSON subset [`Report::to_json`] emits: objects,
/// arrays, escape-free strings and unsigned integers.
struct Parser<'a> {
    src: &'a str,
    i: usize,
}

impl Parser<'_> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        bytes.get(self.i).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == want => {
                self.i += 1;
                Ok(())
            }
            Some(c) => Err(format!(
                "expected {:?}, found {:?} at byte {}",
                want as char, c as char, self.i
            )),
            None => Err(format!("expected {:?}, found end of input", want as char)),
        }
    }

    /// A string value. Rejects escapes (treating `\"` as a terminator
    /// would silently truncate) and strings that run past the line.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            match self.src.as_bytes().get(self.i) {
                Some(b'"') => break,
                Some(b'\\') => {
                    return Err("escaped strings are not supported by this reader".into())
                }
                None | Some(b'\n' | b'\r') => return Err("unterminated string".into()),
                Some(_) => self.i += 1,
            }
        }
        self.i += 1;
        Ok(self.src[start..self.i - 1].to_string())
    }

    /// An unsigned integer. The digit run must end at a structural
    /// character — `12x3` is an error, not 12.
    fn number(&mut self) -> Result<u64, String> {
        self.peek();
        let start = self.i;
        let bytes = self.src.as_bytes();
        while bytes.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        let digits = &self.src[start..self.i];
        if digits.is_empty() {
            return Err("expected a number".into());
        }
        match bytes.get(self.i) {
            None | Some(b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') => {}
            Some(&c) => {
                return Err(format!(
                    "malformed number ({:?} after {digits:?})",
                    c as char
                ))
            }
        }
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(format!("malformed number (leading zero in {digits:?})"));
        }
        digits
            .parse()
            .map_err(|e| format!("number {digits:?}: {e}"))
    }

    /// `{"key": value, ...}`; `member` parses each value. Duplicate keys
    /// are rejected, and errors are prefixed by the key they arose under.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        let mut seen: Vec<String> = Vec::new();
        loop {
            let key = self.string()?;
            if seen.contains(&key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            member(self, &key).map_err(|e| format!("{key}: {e}"))?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' after {key:?}")),
            }
            seen.push(key);
        }
    }

    /// `[item, ...]`; errors are prefixed by the item index.
    fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self).map_err(|e| format!("[{}]: {e}", items.len()))?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err("expected ',' or ']'".into()),
            }
        }
    }

    /// One record: a non-empty name plus all three classes.
    fn record(&mut self) -> Result<Record, String> {
        let mut name = None;
        let mut classes: [Option<Fields>; 3] = Default::default();
        let parsed = self.object(|p, key| {
            if key == "name" {
                name = Some(p.string()?);
                return Ok(());
            }
            let slot = CLASSES
                .iter()
                .position(|c| *c == key)
                .ok_or("unknown key (expected name, det, wall, obs)")?;
            let mut fields = Fields::default();
            p.object(|p, k| {
                fields.0.push((k.to_string(), p.number()?));
                Ok(())
            })?;
            classes[slot] = Some(fields);
            Ok(())
        });
        let name = name.unwrap_or_default();
        if name.is_empty() {
            parsed?;
            return Err("missing or empty field \"name\"".into());
        }
        parsed.map_err(|e| format!("{name}: {e}"))?;
        let [det, wall, obs] = classes;
        let class = |fields: Option<Fields>, class: &str| {
            fields.ok_or_else(|| format!("{name}: missing class {class:?}"))
        };
        Ok(Record {
            det: class(det, "det")?,
            wall: class(wall, "wall")?,
            obs: class(obs, "obs")?,
            name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new(
            "executor",
            true,
            vec![
                Record::new("executor/x/event")
                    .det("n", 10)
                    .det("rounds", 11)
                    .det("messages", 18)
                    .wall("mean_ns", 2)
                    .obs("threads", 1),
                Record::new("solver/y")
                    .det("rounds", 321)
                    .wall("min_ns", 9)
                    .wall("speedup_milli", 2750)
                    .obs("threads", 4)
                    .obs("mem_peak_bytes", 123_456_789),
                Record::new("conformance/z/greedy+local_search").det("ratio_milli", 1000),
            ],
        )
    }

    #[test]
    fn json_roundtrips() {
        let r = sample();
        let json = r.to_json();
        assert_eq!(Report::parse(&json).unwrap(), r);
        // One record per line, behind the envelope's header lines.
        assert_eq!(json.lines().filter(|l| l.contains("\"name\"")).count(), 3);
        assert!(json.starts_with("{\n  \"schema\": \"dsf-bench/v5\",\n  \"tier\": \"executor\""));
        let empty = Report::new("churn", false, Vec::new());
        assert_eq!(Report::parse(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn malformed_numbers_are_rejected_not_truncated() {
        let good = sample().to_json();
        // `"rounds": 11` -> `"rounds": 11x3`: a lenient reader parses 11.
        let bad = good.replacen("\"rounds\": 11,", "\"rounds\": 11x3,", 1);
        let err = Report::parse(&bad).unwrap_err();
        assert!(err.contains("rounds"), "{err}");
        assert!(err.contains("malformed"), "{err}");
        // An empty digit run, a sign, a fraction and a leading zero are
        // just as dead.
        for bad in ["", "-18", "18.5", "018", "1e3"] {
            let bad = good.replacen("\"messages\": 18}", &format!("\"messages\": {bad}}}"), 1);
            assert_ne!(bad, good);
            let err = Report::parse(&bad).unwrap_err();
            assert!(err.contains("messages"), "{bad}: {err}");
        }
    }

    #[test]
    fn escaped_and_unterminated_strings_are_rejected() {
        let good = sample().to_json();
        // An escaped quote inside a name: a reader that stops at the first
        // quote truncates the value and keeps going.
        let bad = good.replacen("executor/x/event", r#"executor\"x"#, 1);
        let err = Report::parse(&bad).unwrap_err();
        assert!(err.contains("escaped"), "{err}");
        // A mode whose string never closes on its line.
        let bad = good.replacen("\"mode\": \"quick\",", "\"mode\": \"quick,", 1);
        let err = Report::parse(&bad).unwrap_err();
        assert!(
            err.contains("unterminated") && err.contains("mode"),
            "{err}"
        );
    }

    #[test]
    fn missing_duplicate_and_unknown_fields_are_rejected() {
        let good = sample().to_json();
        for (from, to, needle) in [
            ("\"tier\": \"executor\",\n", "", "missing field \"tier\""),
            (", \"obs\": {\"threads\": 1}", "", "missing class \"obs\""),
            ("\"name\": \"solver/y\", ", "", "name"),
            (
                "\"rounds\": 321",
                "\"rounds\": 321, \"rounds\": 322",
                "duplicate key",
            ),
            ("\"wall\": {\"mean_ns\": 2}", "\"mem\": {}", "unknown key"),
            ("dsf-bench/v5", "dsf-bench/v4", "expected \"dsf-bench/v5\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from} must occur in the sample");
            let err = Report::parse(&bad).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
        let err = Report::parse(&format!("{good}}}")).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn corrupt_baseline_cannot_pass_check() {
        // End-to-end: a baseline with a mangled metric must fail to parse
        // (a lenient reader reads `11zzz` as 11, which *matches* the live
        // report and lets --check pass against garbage).
        let corrupt = sample()
            .to_json()
            .replacen("\"rounds\": 11,", "\"rounds\": 11zzz,", 1);
        assert!(Report::parse(&corrupt).is_err());
    }

    #[test]
    fn diff_flags_deterministic_drift_only() {
        let base = sample();
        let mut cur = sample();
        assert!(cur.diff_det(&base).is_empty());
        cur.records[0].det.set("rounds", 12);
        let drifts = cur.diff_det(&base);
        assert_eq!(drifts, ["executor/x/event: rounds drifted 11 -> 12"]);
        // A det value gained or lost is drift too.
        cur.records[0].det.set("activations", 3);
        cur.records[2].det = Fields::default();
        let drifts = cur.diff_det(&base);
        assert!(drifts
            .iter()
            .any(|d| d.contains("activations not in baseline")));
        assert!(drifts.iter().any(|d| d.contains("ratio_milli disappeared")));
        // So are vanished and novel records.
        cur.records.remove(1);
        cur.records.push(Record::new("solver/w").det("rounds", 1));
        let drifts = cur.diff_det(&base);
        assert!(drifts
            .iter()
            .any(|d| d.contains("solver/y: record disappeared")));
        assert!(drifts
            .iter()
            .any(|d| d.contains("solver/w: new record not in baseline")));
    }

    #[test]
    fn obs_and_wall_changes_are_not_drift() {
        let base = sample();
        let mut cur = sample();
        cur.records[0].wall.set("mean_ns", 999_999);
        cur.records[0].obs.set("threads", 8);
        cur.records[1].obs = Fields::default();
        cur.records[1].wall.set("max_ns", 5);
        cur.records[2].obs.set("steals", 17);
        assert!(cur.diff_det(&base).is_empty());
    }

    #[test]
    fn mode_mismatch_is_a_drift() {
        let base = sample();
        let mut cur = sample();
        cur.mode = "full".into();
        let drifts = cur.diff_det(&base);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].contains("mode"), "{drifts:?}");
    }

    #[test]
    fn tier_mismatch_is_a_drift() {
        // Same names and det values, but a scale run is not an executor
        // baseline.
        let base = sample();
        let mut cur = sample();
        cur.tier = "scale".into();
        let drifts = cur.diff_det(&base);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].contains("tier \"scale\""), "{drifts:?}");
    }
}
